use aos_isa::stream::{OpStream, Splice};
use aos_isa::Op;

#[test]
fn replace_at_exactly_len_is_dropped() {
    let base = vec![Op::IntAlu, Op::FpAlu, Op::IntMul];
    // replace at index == len (one past last op) — docs say dropped
    let out: Vec<Op> = base
        .iter()
        .copied()
        .splice_many(vec![Splice::replace(3, vec![Op::PacCrypto])])
        .collect();
    assert_eq!(out, base, "replace past end must be dropped, got {out:?}");
}
