//! The shared per-policy rule registry: every static policy owns a
//! fixed taxonomy of rules with stable wire names, fixed severities,
//! and a one-line statement of the obligation each rule enforces.
//!
//! Hoisting the metadata out of the verifiers gives the reports one
//! source of truth for *exact per-rule counts per policy* — the
//! [`MAX_STORED_DIAGNOSTICS`](crate::policy::MAX_STORED_DIAGNOSTICS)
//! cap bounds only the stored diagnostics, never the counts, and each
//! policy counts into its own registry-sized array so findings from
//! different policies can never interleave in one counter.

use crate::rules::{Rule, Severity};

/// Static metadata for one rule in a policy's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable wire name (report keys, CLI tables, corpus metadata).
    pub name: &'static str,
    /// Fixed severity of every finding under the rule.
    pub severity: Severity,
    /// The obligation the rule enforces — one line for the docs and
    /// CLI tables.
    pub obligation: &'static str,
}

/// The 9 AOS lifecycle rules (Fig. 7 / Algorithm 1), in the same
/// order as [`Rule::ALL`] — `Rule as usize` indexes this array.
pub const AOS_RULES: [RuleInfo; Rule::COUNT] = [
    RuleInfo {
        name: "use-before-bndstr",
        severity: Severity::Error,
        obligation: "malloc signs then stores bounds before first use (Fig. 7a)",
    },
    RuleInfo {
        name: "unknown-pac",
        severity: Severity::Error,
        obligation: "every signed pointer descends from a pacma (Fig. 7a)",
    },
    RuleInfo {
        name: "access-after-clear",
        severity: Severity::Error,
        obligation: "no use after the free-site bndclr (Fig. 7b)",
    },
    RuleInfo {
        name: "double-bndclr",
        severity: Severity::Error,
        obligation: "each allocation is cleared exactly once (Fig. 7b)",
    },
    RuleInfo {
        name: "xpacm-without-bndclr",
        severity: Severity::Error,
        obligation: "xpacm strips only as part of the free sequence (Fig. 7b)",
    },
    RuleInfo {
        name: "bndstr-without-pacma",
        severity: Severity::Error,
        obligation: "bndstr pairs with the pacma that signed it (Fig. 7a)",
    },
    RuleInfo {
        name: "ahc-size-mismatch",
        severity: Severity::Error,
        obligation: "AHC bits encode Algorithm 1 of the size operand",
    },
    RuleInfo {
        name: "access-ahc-mismatch",
        severity: Severity::Error,
        obligation: "accesses select the AHC way their bounds live in",
    },
    RuleInfo {
        name: "unbalanced-at-end",
        severity: Severity::Warning,
        obligation: "protocol sequences complete before the stream ends",
    },
];

/// CryptSan's 3 lock-and-key rules: its runtime keys every allocation
/// and checks the key on free and dereference, so the static model
/// proves exactly allocation-key validity — nothing spatial, nothing
/// about AHC size classes (which CryptSan's metadata does not encode).
pub const CRYPTSAN_RULES: [RuleInfo; 3] = [
    RuleInfo {
        name: "unallocated-key",
        severity: Severity::Error,
        obligation: "every keyed pointer descends from a registered allocation",
    },
    RuleInfo {
        name: "revoked-key",
        severity: Severity::Error,
        obligation: "no dereference after the allocation's key is revoked",
    },
    RuleInfo {
        name: "double-revoke",
        severity: Severity::Error,
        obligation: "each allocation's key is revoked exactly once",
    },
];

/// PACSan's 4 seal rules: its shadow memory seals pointers with a PAC
/// at allocation and validates the seal (including its class) on use
/// — but a re-seal launders the pointer, so temporal bugs that end in
/// a fresh `pacma` are invisible to it.
pub const PACSAN_RULES: [RuleInfo; 4] = [
    RuleInfo {
        name: "unsealed-pointer",
        severity: Severity::Error,
        obligation: "every checked pointer carries a seal some pacma produced",
    },
    RuleInfo {
        name: "stale-seal",
        severity: Severity::Error,
        obligation: "no use of a seal after every instance was invalidated",
    },
    RuleInfo {
        name: "seal-class-mismatch",
        severity: Severity::Error,
        obligation: "a use's size class matches the class it was sealed in",
    },
    RuleInfo {
        name: "double-invalidate",
        severity: Severity::Error,
        obligation: "each seal is invalidated at most once per sealing",
    },
];

/// PACTight's 2 pointer-integrity rules: it signs pointers and
/// authenticates them on use, proving only that the bits were never
/// tampered with — no liveness, no bounds, no revocation.
pub const PACTIGHT_RULES: [RuleInfo; 2] = [
    RuleInfo {
        name: "forged-pointer",
        severity: Severity::Error,
        obligation: "every authenticated pointer was signed by this process",
    },
    RuleInfo {
        name: "integrity-class-mismatch",
        severity: Severity::Error,
        obligation: "a pointer authenticates in the class it was signed in",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_are_unique_within_each_registry() {
        for registry in [
            &AOS_RULES[..],
            &CRYPTSAN_RULES[..],
            &PACSAN_RULES[..],
            &PACTIGHT_RULES[..],
        ] {
            let mut names: Vec<&str> = registry.iter().map(|r| r.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate rule name in registry");
        }
    }
}
