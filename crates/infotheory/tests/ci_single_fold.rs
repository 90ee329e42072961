//! The CI test folds its rows once: `ci_test` reads the CMI, the degrees of
//! freedom and the complete-case count off one joint table. This property
//! pins it bit for bit to the two-fold form it replaced — one table for the
//! levels and a second, independent build inside
//! `conditional_mutual_information` for the CMI.

use infotheory::special::chi2_sf;
use infotheory::{ci_test, conditional_mutual_information, CiTestConfig, CiTestResult, JointTable};
use proptest::prelude::*;
use tabular::{ColumnView, EncodedColumn, SealedColumn};

const ROWS: usize = 72;

/// Per-row cells with `0` = missing and `v >= 1` = code `v - 1`.
fn cells(card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..=card, ROWS)
}

fn to_column(cells: &[u32], card: u32) -> EncodedColumn {
    let labels = (0..card).map(|c| format!("v{c}")).collect();
    EncodedColumn::from_option_codes(cells.iter().map(|&v| v.checked_sub(1)), labels)
}

/// The CI test as it was before it folded once: the levels from one joint
/// table, the CMI from a second build of the same table.
fn two_fold_reference(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    z: &[ColumnView<'_>],
    weights: Option<&[f64]>,
    config: CiTestConfig,
) -> CiTestResult {
    let mut all = vec![x, y];
    all.extend_from_slice(z);
    let joint = JointTable::try_build(&all, weights).unwrap();
    let n = joint.complete_cases();
    let cmi = conditional_mutual_information(x, y, z, weights).unwrap();
    if n == 0 {
        return CiTestResult {
            cmi: 0.0,
            statistic: 0.0,
            dof: 0.0,
            p_value: 1.0,
            n,
            independent: true,
        };
    }
    let levels_x = joint.marginal(&[0]).n_cells().max(1);
    let levels_y = joint.marginal(&[1]).n_cells().max(1);
    let levels_z = if z.is_empty() {
        1
    } else {
        let z_dims: Vec<usize> = (2..all.len()).collect();
        joint.marginal(&z_dims).n_cells().max(1)
    };
    let dof = (((levels_x - 1) * (levels_y - 1) * levels_z) as f64).max(1.0);
    let statistic = 2.0 * n as f64 * std::f64::consts::LN_2 * cmi;
    let p_value = chi2_sf(statistic, dof);
    CiTestResult {
        cmi,
        statistic,
        dof,
        p_value,
        n,
        independent: cmi < config.min_cmi || p_value >= config.alpha,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random columns with nulls, unweighted or with integer weights that
    /// include zeros, `|z|` in `0..=2`, over mutable or sealed views.
    #[test]
    fn ci_test_folds_once_with_identical_bits(
        cols in (cells(4), cells(3), cells(3), cells(2)),
        ws in prop::collection::vec(0u32..4, ROWS),
        shape in (0usize..=2, 0u8..2, 0u8..2),
        alpha in 0.01f64..0.2,
    ) {
        let (xs, ys, z0s, z1s) = cols;
        let (n_z, weighted, sealed) = shape;
        let encoded = [
            to_column(&xs, 4),
            to_column(&ys, 3),
            to_column(&z0s, 3),
            to_column(&z1s, 2),
        ];
        let sealed_cols: Vec<SealedColumn> = encoded.iter().map(EncodedColumn::seal).collect();
        let views: Vec<ColumnView<'_>> = if sealed == 1 {
            sealed_cols.iter().map(ColumnView::from).collect()
        } else {
            encoded.iter().map(ColumnView::from).collect()
        };
        let weights: Vec<f64> = ws.iter().map(|&w| f64::from(w)).collect();
        let weights = (weighted == 1).then_some(weights.as_slice());
        let config = CiTestConfig { alpha, min_cmi: 1e-3 };
        let (x, y, z) = (views[0], views[1], &views[2..2 + n_z]);

        let once = ci_test(x, y, z, weights, config).unwrap();
        let cmi = conditional_mutual_information(x, y, z, weights).unwrap();
        let twice = two_fold_reference(x, y, z, weights, config);
        prop_assert_eq!(once.cmi.to_bits(), cmi.to_bits());
        prop_assert_eq!(once.cmi.to_bits(), twice.cmi.to_bits());
        prop_assert_eq!(once.statistic.to_bits(), twice.statistic.to_bits());
        prop_assert_eq!(once.p_value.to_bits(), twice.p_value.to_bits());
        prop_assert_eq!(once.dof.to_bits(), twice.dof.to_bits());
        prop_assert_eq!(once.n, twice.n);
        prop_assert_eq!(once.independent, twice.independent);
    }
}
