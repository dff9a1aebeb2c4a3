//! The multi-lane cipher kernel against the scalar path.

use aos_qarma::{PacKey, Qarma64};
use proptest::prelude::*;

proptest! {
    /// The multi-lane cipher kernel matches the scalar path for any
    /// key, data and modifier: full lane groups and every partial-lane
    /// tail.
    #[test]
    fn compute_batch_matches_compute(
        key in (any::<u64>(), any::<u64>()),
        data in proptest::collection::vec(any::<u64>(), 0..40),
        modifier in any::<u64>(),
    ) {
        let q = Qarma64::new(PacKey::new(key.0, key.1));
        let mut out = vec![0u64; data.len()];
        q.compute_batch_uniform(&data, modifier, &mut out);
        for i in 0..data.len() {
            prop_assert_eq!(out[i], q.compute(data[i], modifier));
        }
    }
}
