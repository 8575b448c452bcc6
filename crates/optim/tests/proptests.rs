//! Property tests of the learning-rate schedules.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule is monotone within warmup and within decay for any
    /// parameterization.
    #[test]
    fn schedules_are_piecewise_monotone(
        peak in 0.01f32..10.0,
        warmup in 1u64..50,
        extra in 1u64..200,
        power_sel in 0usize..2,
    ) {
        use multipod_optim::LrSchedule;
        let total = warmup + extra;
        let s = if power_sel == 0 {
            LrSchedule::lars_resnet(peak, warmup, total)
        } else {
            LrSchedule::lamb_bert(peak, warmup, total)
        };
        for step in 1..warmup {
            prop_assert!(s.at(step) >= s.at(step - 1) - 1e-7);
        }
        for step in warmup + 1..total {
            prop_assert!(s.at(step) <= s.at(step - 1) + 1e-7);
        }
        prop_assert!(s.at(warmup.saturating_sub(1)) <= peak * (1.0 + 1e-6));
    }
}
