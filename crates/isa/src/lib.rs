//! Dynamic instruction streams and instrumentation for the five
//! evaluated systems.
//!
//! The paper compares Baseline, Watchdog, PA, AOS and PA+AOS builds of
//! each workload. The only *architectural* difference between those
//! builds is which instructions appear in the dynamic stream: AOS adds
//! `pacma`/`bndstr`/`bndclr`/`xpacm` around `malloc`/`free` (Fig. 7),
//! Watchdog adds check and metadata-propagation µops (Fig. 5a), PA adds
//! return-address and pointer signing (Fig. 3, Fig. 13). This crate
//! defines the micro-op vocabulary ([`Op`]), the system selector
//! ([`SafetyConfig`]), the call-site expansions ([`expand`]), the
//! Watchdog metadata addressing ([`watchdog`]) and the instruction-mix
//! accounting used for Fig. 16 ([`InstMix`]).
//!
//! # Examples
//!
//! ```
//! use aos_isa::{expand, Op, SafetyConfig};
//!
//! let mut ops = Vec::new();
//! expand::malloc_site(SafetyConfig::Aos, 0x4000_0010, 64, &mut ops);
//! assert!(matches!(ops[0], Op::Pacma { .. }));
//! assert!(matches!(ops[1], Op::BndStr { .. }));
//! ```

pub mod corpus;
pub mod expand;
mod mix;
mod op;
#[cfg(feature = "proptest-support")]
pub mod strategy;
pub mod stream;
pub mod watchdog;

pub use mix::InstMix;
pub use op::{MemoryRef, Op};

/// The five system configurations of the evaluation (§VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SafetyConfig {
    /// No security features.
    #[default]
    Baseline,
    /// Watchdog: fat-pointer bounds + UAF checking with explicit check
    /// µops and in-memory lock locations.
    Watchdog,
    /// PARTS-style pointer integrity: return-address signing plus
    /// on-load data-pointer authentication.
    Pa,
    /// The paper's contribution: PAC-indexed bounds checking in the
    /// MCU.
    Aos,
    /// AOS integrated with PA pointer integrity (§VII-B).
    PaAos,
}

impl SafetyConfig {
    /// All five configurations, in the order the figures plot them.
    pub const ALL: [SafetyConfig; 5] = [
        SafetyConfig::Baseline,
        SafetyConfig::Watchdog,
        SafetyConfig::Pa,
        SafetyConfig::Aos,
        SafetyConfig::PaAos,
    ];

    /// Whether this configuration signs heap pointers and bounds-checks
    /// them in the MCU.
    pub fn uses_aos(self) -> bool {
        matches!(self, SafetyConfig::Aos | SafetyConfig::PaAos)
    }

    /// Whether this configuration adds PA pointer-integrity signing.
    pub fn uses_pa(self) -> bool {
        matches!(self, SafetyConfig::Pa | SafetyConfig::PaAos)
    }

    /// Parses a system name, case-insensitively: the [`Display`]
    /// spelling (`pa+aos` for the combined system) or `paaos`.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn parse(name: &str) -> Option<SafetyConfig> {
        if name.eq_ignore_ascii_case("paaos") {
            return Some(SafetyConfig::PaAos);
        }
        Self::ALL
            .into_iter()
            .find(|c| c.to_string().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for SafetyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SafetyConfig::Baseline => "Baseline",
            SafetyConfig::Watchdog => "Watchdog",
            SafetyConfig::Pa => "PA",
            SafetyConfig::Aos => "AOS",
            SafetyConfig::PaAos => "PA+AOS",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_capabilities() {
        assert!(!SafetyConfig::Baseline.uses_aos());
        assert!(!SafetyConfig::Baseline.uses_pa());
        assert!(SafetyConfig::Aos.uses_aos());
        assert!(!SafetyConfig::Aos.uses_pa());
        assert!(SafetyConfig::PaAos.uses_aos());
        assert!(SafetyConfig::PaAos.uses_pa());
        assert!(SafetyConfig::Pa.uses_pa());
        assert!(!SafetyConfig::Watchdog.uses_aos());
    }

    #[test]
    fn display_names_match_figures() {
        let names: Vec<String> = SafetyConfig::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["Baseline", "Watchdog", "PA", "AOS", "PA+AOS"]);
    }

    #[test]
    fn display_names_parse_back() {
        for config in SafetyConfig::ALL {
            let name = config.to_string();
            assert_eq!(SafetyConfig::parse(&name), Some(config), "{name}");
            assert_eq!(
                SafetyConfig::parse(&name.to_ascii_lowercase()),
                Some(config)
            );
        }
        assert_eq!(SafetyConfig::parse("paaos"), Some(SafetyConfig::PaAos));
        assert_eq!(SafetyConfig::parse("bogus"), None);
    }
}
