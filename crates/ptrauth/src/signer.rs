//! The AOS ISA-extension semantics: `pacma`, `autm`, `xpacm`
//! (paper §IV-A).

use crate::ahc::{compute_ahc, Ahc};
use crate::layout::PointerLayout;
use aos_qarma::{truncate_pac, PacKey, Qarma64};
use aos_util::{Counter, Telemetry};

/// Error returned by [`PointerSigner::autm`] when authentication fails.
///
/// In hardware a failed `autm` corrupts the pointer so that any later
/// dereference takes a translation fault; in this model we surface the
/// failure directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthError {
    pointer: u64,
}

impl AuthError {
    /// The pointer that failed authentication.
    pub fn pointer(&self) -> u64 {
        self.pointer
    }
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pointer {:#x} failed autm authentication (AHC is zero)",
            self.pointer
        )
    }
}

impl std::error::Error for AuthError {}

/// Implements the AOS signing instructions over a QARMA key and a
/// pointer layout.
///
/// # Examples
///
/// ```
/// use aos_ptrauth::{PointerLayout, PointerSigner};
/// use aos_qarma::PacKey;
///
/// let signer = PointerSigner::new(PacKey::new(1, 2), PointerLayout::default());
/// let signed = signer.pacma(0x4000, 0xDEAD, 128);
/// assert_eq!(signer.layout().address(signed), 0x4000);
/// assert_ne!(signed, 0x4000, "PAC and AHC are embedded");
/// ```
#[derive(Debug, Clone)]
pub struct PointerSigner {
    qarma: Qarma64,
    layout: PointerLayout,
    telemetry: Telemetry,
}

impl PointerSigner {
    /// Creates a signer from a PA key (key M in the paper's naming)
    /// and a pointer layout.
    pub fn new(key: PacKey, layout: PointerLayout) -> Self {
        Self {
            qarma: Qarma64::new(key),
            layout,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: PAC computations, sign/strip/auth
    /// operations and authentication failures are recorded into it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The pointer layout in use.
    pub fn layout(&self) -> PointerLayout {
        self.layout
    }

    /// Computes the (truncated) PAC for a chunk base address under
    /// `modifier`. AOS always signs the *base* address returned by
    /// `malloc`, so every interior pointer of a chunk carries the same
    /// PAC.
    pub fn pac_for(&self, base_addr: u64, modifier: u64) -> u64 {
        truncate_pac(
            self.qarma.compute_with(base_addr, modifier, &self.telemetry),
            self.layout.pac_size(),
        )
    }

    /// `pacma <Xd>, <Xn|SP>, <Xm>` — signs `pointer` using `modifier`,
    /// embedding the PAC of its (stripped) address and the AHC derived
    /// from `size` (paper §IV-A). Passing `size == 0` models the `xzr`
    /// operand used when re-signing a freed pointer.
    ///
    /// # Panics
    ///
    /// Panics if the stripped address exceeds the layout's VA width.
    pub fn pacma(&self, pointer: u64, modifier: u64, size: u64) -> u64 {
        self.telemetry.count(Counter::PtrSigns);
        let addr = self.layout.address(pointer);
        let pac = self.pac_for(addr, modifier);
        let ahc = compute_ahc(addr, size, self.layout.va_size());
        self.layout.compose(addr, pac, ahc.bits())
    }

    /// `xpacm <Xd>` — strips both the PAC and the AHC, recovering the
    /// raw address.
    pub fn xpacm(&self, pointer: u64) -> u64 {
        self.telemetry.count(Counter::PtrStrips);
        self.layout.strip(pointer)
    }

    /// `autm <Xd>` — authenticates that the pointer was signed by AOS
    /// by checking its AHC is nonzero. Unlike `autda`, it neither
    /// recomputes the PAC (interior pointers no longer match the base
    /// address PAC) nor strips the AHC (paper §IV-A, §VII-B).
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the AHC is zero, i.e. the pointer is
    /// not marked as an AOS-signed pointer.
    pub fn autm(&self, pointer: u64) -> Result<u64, AuthError> {
        self.telemetry.count(Counter::PtrAuths);
        if self.layout.is_signed(pointer) {
            Ok(pointer)
        } else {
            self.telemetry.count(Counter::AuthFailures);
            Err(AuthError { pointer })
        }
    }

    /// Reads the AHC of a signed pointer, if any.
    pub fn ahc_of(&self, pointer: u64) -> Option<Ahc> {
        Ahc::from_bits(self.layout.ahc(pointer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer() -> PointerSigner {
        PointerSigner::new(
            PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9),
            PointerLayout::default(),
        )
    }

    #[test]
    fn pacma_embeds_pac_and_ahc() {
        let s = signer();
        let signed = s.pacma(0x2000, 7, 64);
        assert_eq!(s.layout().address(signed), 0x2000);
        assert_eq!(s.layout().pac(signed), s.pac_for(0x2000, 7));
        assert_eq!(s.ahc_of(signed), Some(Ahc::Small));
    }

    #[test]
    fn pacma_is_deterministic() {
        let s = signer();
        assert_eq!(s.pacma(0x2000, 7, 64), s.pacma(0x2000, 7, 64));
    }

    #[test]
    fn pacma_depends_on_modifier() {
        let s = signer();
        assert_ne!(s.pacma(0x2000, 7, 64), s.pacma(0x2000, 8, 64));
    }

    #[test]
    fn pacma_with_zero_size_locks_pointer() {
        let s = signer();
        let resigned = s.pacma(0x2000, 7, 0);
        assert!(s.layout().is_signed(resigned), "freed pointer stays signed");
    }

    #[test]
    fn pacma_on_already_signed_pointer_resigns_base() {
        let s = signer();
        let once = s.pacma(0x2000, 7, 64);
        let twice = s.pacma(once, 7, 64);
        assert_eq!(once, twice, "stripping before signing is implicit");
    }

    #[test]
    fn xpacm_strips_everything() {
        let s = signer();
        let signed = s.pacma(0x3000, 1, 4096);
        assert_eq!(s.xpacm(signed), 0x3000);
        assert_eq!(s.xpacm(0x3000), 0x3000, "stripping unsigned is a no-op");
    }

    #[test]
    fn autm_accepts_signed_rejects_unsigned() {
        let s = signer();
        let signed = s.pacma(0x3000, 1, 64);
        assert_eq!(s.autm(signed), Ok(signed));
        let err = s.autm(0x3000).unwrap_err();
        assert_eq!(err.pointer(), 0x3000);
        let shown = err.to_string();
        assert!(shown.contains("autm"), "display was {shown}");
    }

    #[test]
    fn autm_does_not_strip() {
        let s = signer();
        let signed = s.pacma(0x3000, 1, 64);
        let authed = s.autm(signed).unwrap();
        assert!(s.layout().is_signed(authed));
    }

    #[test]
    fn interior_pointer_keeps_pac_through_arithmetic() {
        // The whole point of in-pointer metadata: ordinary adds leave
        // PAC and AHC intact.
        let s = signer();
        let signed = s.pacma(0x4000, 9, 256);
        let interior = signed + 0x80;
        assert_eq!(s.layout().pac(interior), s.layout().pac(signed));
        assert_eq!(s.layout().ahc(interior), s.layout().ahc(signed));
        assert_eq!(s.layout().address(interior), 0x4080);
    }

    #[test]
    fn pacma_signs_only_the_address_field() {
        // Bits above the VA field are metadata, not address: signing a
        // pointer whose upper bits are set operates on the masked
        // address, as the hardware field extraction does.
        let s = signer();
        let garbage_upper = (1u64 << 47) | 0x2000;
        assert_eq!(s.pacma(garbage_upper, 7, 64), s.pacma(0x2000, 7, 64));
    }

    #[test]
    fn pac_for_matches_qarma_truncation() {
        let s = signer();
        let pac = s.pac_for(0xfb62_3599_da6e_8127 & ((1 << 46) - 1), 0x477d469dec0b8762);
        assert!(pac < 1 << 16);
    }
}
