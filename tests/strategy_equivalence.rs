//! Every strategy kind, read bare, answers as the logical column does.
//! Each property is a slice of the shared harness's bare system
//! (`model/mod.rs`): its own cases of the one generator, under the load
//! its name names, each answer and the whole column compared with the
//! model after every op.

mod model;

use proptest::prelude::*;
use socdb::prelude::StrategyKind;

use model::Cases;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Uniform reads only: every count and collected row set is the
    /// model's.
    #[test]
    fn all_strategies_agree_on_every_query(case in Cases { skewed: false, writes: false }) {
        model::bare(&case, &StrategyKind::ALL)?;
    }

    /// Reads crowding two hot areas, writes, merges, switches and
    /// checkpoints interleaved.
    #[test]
    fn all_strategies_agree_under_skewed_load(case in Cases { skewed: true, writes: true }) {
        model::bare(&case, &StrategyKind::ALL)?;
    }

    /// The bare system's reads compare both the count and the sorted
    /// collect with the model, with writes folded between them.
    #[test]
    fn collect_and_count_agree_for_every_strategy(case in Cases::MIXED) {
        model::bare(&case, &StrategyKind::ALL)?;
    }

    /// Skewed reads only: after every reorganizing read, the whole column
    /// holds exactly the base rows (the bare validator).
    #[test]
    fn tuple_counts_are_conserved_by_reorganization(case in Cases { skewed: true, writes: false }) {
        model::bare(&case, &StrategyKind::ALL)?;
    }
}
