//! A served column answers as the logical column does while two reader
//! threads race the writer's reorganization hints, for every strategy
//! kind, unsharded and over a `ShardedColumn`. The model stands for the
//! serial path; the cases and the served system are the shared harness's
//! (`model/mod.rs`).

mod model;

use proptest::prelude::*;
use socdb::prelude::StrategyKind;

use model::Cases;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn concurrent_readers_equal_serial_for_all_kinds(case in Cases::MIXED) {
        model::served(&case, &StrategyKind::ALL)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each kind over one of three placements, re-placed whenever the
    /// column is built, switched or restored.
    #[test]
    fn concurrent_readers_equal_serial_over_sharded_placement(case in Cases::MIXED) {
        model::sharded(&case, &StrategyKind::ALL, &model::PLACEMENTS)?;
    }
}
