//! Property-based tests (proptest) for the core invariants the system relies
//! on: information-theoretic identities, binning monotonicity, dataframe
//! round-trips, and explanation invariants.

use proptest::prelude::*;

use mesa_repro::infotheory::{
    conditional_entropy, conditional_mutual_information, entropy, joint_entropy, mutual_information,
};
use mesa_repro::tabular::{bin_column, BinStrategy, Column, DataFrame, EncodedColumn, Value};

/// Strategy: a small categorical column as integer codes in 0..card.
fn coded_column(len: usize, card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..card, len)
}

fn to_encoded(codes: &[u32]) -> EncodedColumn {
    Column::from_i64("c", codes.iter().map(|&c| Some(c as i64)).collect()).encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// H(X) is non-negative and bounded by log2(cardinality).
    #[test]
    fn entropy_bounds(codes in coded_column(60, 5)) {
        let x = to_encoded(&codes);
        let h = entropy((&x).into(), None).unwrap();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (x.cardinality().max(1) as f64).log2() + 1e-9);
    }

    /// I(X;Y) is symmetric, non-negative, and bounded by min(H(X), H(Y)).
    #[test]
    fn mutual_information_symmetry_and_bounds(
        xs in coded_column(80, 4),
        ys in coded_column(80, 4),
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let ixy = mutual_information((&x).into(), (&y).into(), None).unwrap();
        let iyx = mutual_information((&y).into(), (&x).into(), None).unwrap();
        prop_assert!((ixy - iyx).abs() < 1e-9);
        prop_assert!(ixy >= 0.0);
        let hx = entropy((&x).into(), None).unwrap();
        let hy = entropy((&y).into(), None).unwrap();
        prop_assert!(ixy <= hx.min(hy) + 1e-9);
    }

    /// H(X,Y) = H(X) + H(Y|X) (chain rule) on fully observed data.
    #[test]
    fn entropy_chain_rule(
        xs in coded_column(70, 3),
        ys in coded_column(70, 4),
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let joint = joint_entropy(&[(&x).into(), (&y).into()], None).unwrap();
        let chained = entropy((&x).into(), None).unwrap()
            + conditional_entropy((&y).into(), &[(&x).into()], None).unwrap();
        prop_assert!((joint - chained).abs() < 1e-9, "joint={joint}, chained={chained}");
    }

    /// I(X;Y|Z) is non-negative, and conditioning on X itself yields zero.
    #[test]
    fn cmi_non_negative_and_self_conditioning(
        xs in coded_column(80, 3),
        ys in coded_column(80, 3),
        zs in coded_column(80, 3),
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let z = to_encoded(&zs);
        let cmi = |given: &EncodedColumn| {
            conditional_mutual_information((&x).into(), (&y).into(), &[given.into()], None).unwrap()
        };
        prop_assert!(cmi(&z) >= 0.0);
        prop_assert!(cmi(&x) < 1e-9);
    }

    /// Uniform per-row weights leave every estimate unchanged.
    #[test]
    fn uniform_weights_are_a_noop(
        xs in coded_column(60, 4),
        ys in coded_column(60, 4),
        scale in 0.1f64..10.0,
    ) {
        let x = to_encoded(&xs);
        let y = to_encoded(&ys);
        let w = vec![scale; xs.len()];
        let unweighted = mutual_information((&x).into(), (&y).into(), None).unwrap();
        let weighted = mutual_information((&x).into(), (&y).into(), Some(&w)).unwrap();
        prop_assert!((unweighted - weighted).abs() < 1e-9);
    }

    /// Binning never increases the number of distinct values and preserves
    /// the value ordering (monotone bin assignment).
    #[test]
    fn binning_is_monotone(values in prop::collection::vec(-1e6f64..1e6, 5..80), bins in 2usize..10) {
        let col = Column::from_f64("x", values.iter().map(|&v| Some(v)).collect());
        let binned = bin_column(&col, bins, BinStrategy::EqualWidth).unwrap();
        prop_assert!(binned.n_distinct() <= bins);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] <= values[j] {
                    let bi = binned.get(i).unwrap().as_i64().unwrap();
                    let bj = binned.get(j).unwrap().as_i64().unwrap();
                    prop_assert!(bi <= bj);
                }
            }
        }
    }

    /// take + filter round-trip: filtering with an all-true mask is identity,
    /// and take preserves cell values at the selected indices.
    #[test]
    fn frame_take_preserves_cells(values in prop::collection::vec(0i64..100, 2..40)) {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("a", values.iter().map(|&v| Some(v)).collect()),
            Column::from_i64("b", values.iter().map(|&v| Some(v * 2)).collect()),
        ]).unwrap();
        let all = df.filter_mask(&vec![true; values.len()]).unwrap();
        prop_assert_eq!(all.n_rows(), df.n_rows());
        let idx: Vec<usize> = (0..values.len()).rev().collect();
        let rev = df.take(&idx);
        for (new_row, &old_row) in idx.iter().enumerate() {
            prop_assert_eq!(rev.get(new_row, "a").unwrap(), Value::Int(values[old_row]));
        }
    }

    /// CSV round-trip preserves the shape and the integer cell values.
    #[test]
    fn csv_roundtrip(values in prop::collection::vec(-1000i64..1000, 1..50)) {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("x", values.iter().map(|&v| Some(v)).collect()),
        ]).unwrap();
        let text = mesa_repro::tabular::write_csv_str(&df);
        let back = mesa_repro::tabular::read_csv_str(&text).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(back.get(i, "x").unwrap(), Value::Int(v));
        }
    }
}
