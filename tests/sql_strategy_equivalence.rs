//! A column read through SQL answers as the same strategy read directly:
//! on each case both answer as the logical column does, stacked updates
//! of one row included. The cases, the model and both systems are the
//! shared harness's (`model/mod.rs`).

mod model;

use proptest::prelude::*;
use socdb::prelude::StrategyKind;

use model::Cases;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sql_equals_direct_strategy_execution_for_all_kinds(case in Cases::MIXED) {
        model::sql(&case, &StrategyKind::ALL)?;
        model::bare(&case, &StrategyKind::ALL)?;
    }
}
