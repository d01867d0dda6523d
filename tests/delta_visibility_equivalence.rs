//! The compiled, segment-optimized select sees exactly the model's rows
//! with writes pending, and a merge folds them into the column it reads
//! without moving a piece, for every strategy kind. The cases, the model
//! and the SQL system are the shared harness's (`model/mod.rs`).

mod model;

use proptest::prelude::*;
use socdb::prelude::StrategyKind;

use model::Cases;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn figure1_merge_equals_the_model_for_every_kind(case in Cases::MIXED) {
        model::sql(&case, &StrategyKind::ALL)?;
    }
}
