//! The multi-lane cipher kernel against the scalar path.

use aos_qarma::{PacKey, Qarma64};
use proptest::prelude::*;

proptest! {
    /// The multi-lane cipher kernel matches the scalar path for any
    /// data/modifier mix — uniform modifiers (the batched fast path),
    /// mixed modifiers (the fallback), and every partial-lane tail.
    #[test]
    fn compute_batch_matches_compute(
        key in (any::<u64>(), any::<u64>()),
        data in proptest::collection::vec(any::<u64>(), 0..40),
        uniform in any::<bool>(),
        modifier_seed in any::<u64>(),
    ) {
        let q = Qarma64::new(PacKey::new(key.0, key.1));
        let modifiers: Vec<u64> = (0..data.len() as u64)
            .map(|i| if uniform { modifier_seed } else { modifier_seed.wrapping_add(i * 0x9e37) })
            .collect();
        let mut out = vec![0u64; data.len()];
        q.compute_batch(&data, &modifiers, &mut out);
        for i in 0..data.len() {
            prop_assert_eq!(out[i], q.compute(data[i], modifiers[i]));
        }
    }
}
