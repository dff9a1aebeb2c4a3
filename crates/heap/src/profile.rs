//! Allocation-profile accounting (paper Tables II and III).
//!
//! The paper characterizes workloads by their *maximum number of
//! active chunks* versus total allocation/deallocation counts — the
//! observation (§VI) that motivates the hashed bounds table: programs
//! allocate millions of times but keep only a modest working set live,
//! so a PAC-indexed table with a handful of ways per row suffices.

/// Running allocation statistics, updated by the allocator.
///
/// # Examples
///
/// ```
/// use aos_heap::profile::UsageProfile;
/// let mut p = UsageProfile::default();
/// p.note_alloc(64);
/// p.note_alloc(64);
/// p.note_free(64);
/// assert_eq!(p.max_live, 2);
/// assert_eq!(p.live, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UsageProfile {
    /// Total `malloc` calls.
    pub allocations: u64,
    /// Total `free` calls.
    pub deallocations: u64,
    /// Currently live chunks.
    pub live: u64,
    /// Peak live chunks ("Max Active" in Table II).
    pub max_live: u64,
    /// Currently live usable bytes.
    pub live_bytes: u64,
    /// Peak live usable bytes.
    pub max_live_bytes: u64,
}

impl UsageProfile {
    /// Records one allocation of `bytes` usable bytes.
    pub fn note_alloc(&mut self, bytes: u64) {
        self.allocations += 1;
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        self.live_bytes += bytes;
        self.max_live_bytes = self.max_live_bytes.max(self.live_bytes);
    }

    /// Records one deallocation of `bytes` usable bytes.
    pub fn note_free(&mut self, bytes: u64) {
        self.deallocations += 1;
        self.live = self.live.saturating_sub(1);
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Records an in-place shrink: live-byte accounting only (the
    /// chunk count is unchanged).
    pub fn note_shrink(&mut self, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }
}

impl std::fmt::Display for UsageProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max_active={} allocations={} deallocations={} live={}",
            self.max_live, self.allocations, self.deallocations, self.live
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_bookkeeping() {
        let mut p = UsageProfile::default();
        p.note_alloc(100);
        p.note_alloc(200);
        assert_eq!(p.live_bytes, 300);
        assert_eq!(p.max_live_bytes, 300);
        p.note_free(100);
        assert_eq!(p.live_bytes, 200);
        assert_eq!(p.max_live_bytes, 300);
        assert_eq!(p.live, 1);
        assert_eq!(p.max_live, 2);
    }

    #[test]
    fn shrink_adjusts_bytes_only() {
        let mut p = UsageProfile::default();
        p.note_alloc(128);
        p.note_shrink(64);
        assert_eq!(p.live, 1);
        assert_eq!(p.live_bytes, 64);
        assert_eq!(p.deallocations, 0);
    }

    #[test]
    fn free_never_underflows() {
        let mut p = UsageProfile::default();
        p.note_free(50);
        assert_eq!(p.live, 0);
        assert_eq!(p.live_bytes, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let p = UsageProfile::default();
        assert!(!p.to_string().is_empty());
    }
}
