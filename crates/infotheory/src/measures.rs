//! Entropy, mutual information, conditional mutual information, and
//! interaction information — the measures MESA is built on.
//!
//! All quantities are plug-in (maximum-likelihood) estimates over discrete
//! codes, in bits (log base 2), computed on complete cases and optionally
//! re-weighted by IPW weights. This mirrors the paper's use of the Pyitlib
//! library for CMI estimation.

use tabular::{ColumnView, TabularError};

use crate::contingency::JointTable;

/// Shannon entropy `H(X)` of a single column.
pub fn entropy(x: ColumnView<'_>, weights: Option<&[f64]>) -> Result<f64, TabularError> {
    Ok(JointTable::try_build(&[x], weights)?.entropy())
}

/// Joint Shannon entropy `H(X1, ..., Xk)` of a set of columns (0 for no
/// columns).
pub fn joint_entropy(
    cols: &[ColumnView<'_>],
    weights: Option<&[f64]>,
) -> Result<f64, TabularError> {
    if cols.is_empty() {
        return Ok(0.0);
    }
    Ok(JointTable::try_build(cols, weights)?.entropy())
}

/// Conditional entropy `H(X | Z1, ..., Zk) = H(X, Z) - H(Z)`.
///
/// Both terms are computed on the same complete-case set (rows complete in
/// `X` and every `Z`), so the identity holds exactly.
pub fn conditional_entropy(
    x: ColumnView<'_>,
    given: &[ColumnView<'_>],
    weights: Option<&[f64]>,
) -> Result<f64, TabularError> {
    if given.is_empty() {
        return entropy(x, weights);
    }
    let mut all: Vec<ColumnView<'_>> = Vec::with_capacity(given.len() + 1);
    all.push(x);
    all.extend_from_slice(given);
    let joint = JointTable::try_build(&all, weights)?;
    let z_dims: Vec<usize> = (1..all.len()).collect();
    Ok((joint.entropy() - joint.marginal(&z_dims).entropy()).max(0.0))
}

/// Mutual information `I(X; Y) = H(X) + H(Y) - H(X, Y)`.
///
/// Computed over rows complete in both `X` and `Y`.
pub fn mutual_information(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    weights: Option<&[f64]>,
) -> Result<f64, TabularError> {
    Ok(cmi_of_joint(&JointTable::try_build(&[x, y], weights)?, 0))
}

/// Conditional mutual information
/// `I(X; Y | Z) = H(X, Z) + H(Y, Z) - H(X, Y, Z) - H(Z)`,
/// where `Z` is a (possibly empty) set of conditioning columns.
///
/// With an empty conditioning set this reduces to [`mutual_information`].
/// All four entropies are computed from one joint table built over rows
/// complete in every involved column, so the chain-rule identities hold
/// exactly on the estimate.
pub fn conditional_mutual_information(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    z: &[ColumnView<'_>],
    weights: Option<&[f64]>,
) -> Result<f64, TabularError> {
    let mut all: Vec<ColumnView<'_>> = Vec::with_capacity(z.len() + 2);
    all.push(x);
    all.push(y);
    all.extend_from_slice(z);
    Ok(cmi_of_joint(
        &JointTable::try_build(&all, weights)?,
        z.len(),
    ))
}

/// `I(X; Y | Z)` read off one joint table whose dimensions are
/// `[X, Y, Z1, ..., Zn_z]`: the arithmetic behind
/// [`conditional_mutual_information`] (and, with `n_z == 0`,
/// [`mutual_information`]) without building the table again, so a caller
/// that already holds the table — the CI test — folds the rows once.
pub fn cmi_of_joint(joint: &JointTable, n_z: usize) -> f64 {
    if n_z == 0 {
        let hx = joint.marginal(&[0]).entropy();
        let hy = joint.marginal(&[1]).entropy();
        return (hx + hy - joint.entropy()).max(0.0);
    }
    if joint.is_empty() {
        return 0.0;
    }
    let z_dims: Vec<usize> = (2..2 + n_z).collect();
    let xz_dims: Vec<usize> = std::iter::once(0).chain(z_dims.iter().copied()).collect();
    let yz_dims: Vec<usize> = std::iter::once(1).chain(z_dims.iter().copied()).collect();
    let h_xyz = joint.entropy();
    let h_xz = joint.marginal(&xz_dims).entropy();
    let h_yz = joint.marginal(&yz_dims).entropy();
    let h_z = joint.marginal(&z_dims).entropy();
    (h_xz + h_yz - h_xyz - h_z).max(0.0)
}

/// Interaction information `II(X; Y; Z) = I(X; Y) - I(X; Y | Z)`.
///
/// Positive values mean `Z` explains away part of the X–Y association
/// (redundancy); negative values mean conditioning on `Z` *induces*
/// association (the XOR-like case the paper's key assumption rules out of
/// explanations).
pub fn interaction_information(
    x: ColumnView<'_>,
    y: ColumnView<'_>,
    z: ColumnView<'_>,
    weights: Option<&[f64]>,
) -> Result<f64, TabularError> {
    // Use the same complete-case set for both terms so the difference is not
    // an artefact of different row sets.
    let joint = JointTable::try_build(&[x, y, z], weights)?;
    if joint.is_empty() {
        return Ok(0.0);
    }
    let h_xy = joint.marginal(&[0, 1]).entropy();
    let h_x = joint.marginal(&[0]).entropy();
    let h_y = joint.marginal(&[1]).entropy();
    let i_xy = (h_x + h_y - h_xy).max(0.0);
    let h_xz = joint.marginal(&[0, 2]).entropy();
    let h_yz = joint.marginal(&[1, 2]).entropy();
    let h_z = joint.marginal(&[2]).entropy();
    let i_xy_given_z = (h_xz + h_yz - joint.entropy() - h_z).max(0.0);
    Ok(i_xy - i_xy_given_z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{Column, EncodedColumn};

    fn enc(vals: &[&str]) -> EncodedColumn {
        Column::from_str_values("c", vals.iter().map(|v| Some(*v)).collect()).encode()
    }

    fn enc_opt(vals: &[Option<&str>]) -> EncodedColumn {
        Column::from_str_values("c", vals.to_vec()).encode()
    }

    fn views<'a>(cols: &[&'a EncodedColumn]) -> Vec<ColumnView<'a>> {
        cols.iter().map(|&c| c.into()).collect()
    }

    fn h(x: &EncodedColumn, w: Option<&[f64]>) -> f64 {
        entropy(x.into(), w).unwrap()
    }

    fn h_joint(cols: &[&EncodedColumn]) -> f64 {
        joint_entropy(&views(cols), None).unwrap()
    }

    fn h_given(x: &EncodedColumn, given: &[&EncodedColumn]) -> f64 {
        conditional_entropy(x.into(), &views(given), None).unwrap()
    }

    fn mi(x: &EncodedColumn, y: &EncodedColumn) -> f64 {
        mutual_information(x.into(), y.into(), None).unwrap()
    }

    fn cmi(x: &EncodedColumn, y: &EncodedColumn, z: &[&EncodedColumn]) -> f64 {
        conditional_mutual_information(x.into(), y.into(), &views(z), None).unwrap()
    }

    fn ii(x: &EncodedColumn, y: &EncodedColumn, z: &EncodedColumn) -> f64 {
        interaction_information(x.into(), y.into(), z.into(), None).unwrap()
    }

    #[test]
    fn entropy_of_uniform_and_constant() {
        assert!((h(&enc(&["a", "b", "c", "d"]), None) - 2.0).abs() < 1e-12);
        assert_eq!(h(&enc(&["a", "a", "a"]), None), 0.0);
        assert!((h(&enc(&["a", "a", "b", "b"]), None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_entropy_independent_vars_adds() {
        let x = enc(&["a", "a", "b", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        assert!((h_joint(&[&x, &y]) - 2.0).abs() < 1e-12);
        assert_eq!(h_joint(&[]), 0.0);
    }

    #[test]
    fn conditional_entropy_identities() {
        let x = enc(&["a", "a", "b", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        // independent: H(X|Y) = H(X)
        assert!((h_given(&x, &[&y]) - 1.0).abs() < 1e-12);
        // determined: H(X|X) = 0
        assert!(h_given(&x, &[&x]).abs() < 1e-12);
        // no conditioning
        assert!((h_given(&x, &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mi_independent_is_zero() {
        let x = enc(&["a", "a", "b", "b"]);
        let y = enc(&["0", "1", "0", "1"]);
        assert!(mi(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn mi_identical_equals_entropy() {
        let x = enc(&["a", "b", "c", "a", "b", "c"]);
        let hx = h(&x, None);
        assert!((mi(&x, &x) - hx).abs() < 1e-12);
    }

    #[test]
    fn mi_symmetric() {
        let x = enc(&["a", "a", "b", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1", "1", "1"]);
        let ixy = mi(&x, &y);
        let iyx = mi(&y, &x);
        assert!((ixy - iyx).abs() < 1e-12);
        assert!(ixy >= 0.0);
    }

    #[test]
    fn cmi_empty_conditioning_equals_mi() {
        let x = enc(&["a", "a", "b", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1", "1", "1"]);
        assert!((cmi(&x, &y, &[]) - mi(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn cmi_explains_away_confounder() {
        // Z drives both X and Y: X = Z, Y = Z. Then I(X;Y) = H(Z) > 0 but
        // I(X;Y|Z) = 0 — Z fully explains the correlation.
        let z = enc(&["u", "u", "v", "v", "u", "v", "u", "v"]);
        let x = z.clone();
        let y = z.clone();
        assert!(mi(&x, &y) > 0.9);
        assert!(cmi(&x, &y, &[&z]).abs() < 1e-12);
    }

    #[test]
    fn cmi_conditioning_on_irrelevant_keeps_mi() {
        let x = enc(&["a", "a", "b", "b", "a", "a", "b", "b"]);
        let y = x.clone();
        let noise = enc(&["p", "q", "p", "q", "q", "p", "q", "p"]);
        let i = mi(&x, &y);
        let c = cmi(&x, &y, &[&noise]);
        assert!((i - c).abs() < 1e-9);
    }

    #[test]
    fn cmi_xor_is_positive_given_z() {
        // Y = X xor Z with X, Z independent fair coins: I(X;Y)=0 but
        // I(X;Y|Z)=1 — conditioning induces dependence.
        let x = enc(&["0", "0", "1", "1"]);
        let z = enc(&["0", "1", "0", "1"]);
        let y = enc(&["0", "1", "1", "0"]);
        assert!(mi(&x, &y).abs() < 1e-12);
        assert!((cmi(&x, &y, &[&z]) - 1.0).abs() < 1e-12);
        // and the interaction information is negative
        assert!(ii(&x, &y, &z) < -0.9);
    }

    #[test]
    fn interaction_positive_for_confounder() {
        let z = enc(&["u", "u", "v", "v", "u", "v"]);
        let x = z.clone();
        let y = z.clone();
        assert!(ii(&x, &y, &z) > 0.9);
    }

    #[test]
    fn missing_values_complete_case() {
        let x = enc_opt(&[Some("a"), Some("b"), None, Some("a")]);
        let y = enc_opt(&[Some("0"), Some("1"), Some("0"), None]);
        // only rows 0 and 1 are complete
        let i = mi(&x, &y);
        assert!((i - 1.0).abs() < 1e-12);
        let all_missing = enc_opt(&[None, None, None, None]);
        assert_eq!(cmi(&x, &y, &[&all_missing]), 0.0);
        assert_eq!(ii(&x, &y, &all_missing), 0.0);
    }

    #[test]
    fn weights_change_distribution() {
        let x = enc(&["a", "b"]);
        // uniform: 1 bit; heavily skewed: less than 1 bit
        assert!((h(&x, Some(&[1.0, 1.0])) - 1.0).abs() < 1e-12);
        assert!(h(&x, Some(&[9.0, 1.0])) < 0.5);
    }

    #[test]
    fn chain_rule_holds_on_estimates() {
        // I(X;Y,Z) = I(X;Y) + I(X;Z|Y) for fully observed data
        let x = enc(&["a", "a", "b", "b", "a", "b", "a", "b"]);
        let y = enc(&["0", "1", "0", "1", "1", "0", "0", "1"]);
        let z = enc(&["p", "p", "q", "q", "q", "p", "q", "p"]);
        // joint of (y,z) as a single variable via building a combined coding
        let yz_codes: Vec<Option<u32>> = y
            .iter_codes()
            .zip(z.iter_codes())
            .map(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Some(a * 2 + b),
                _ => None,
            })
            .collect();
        let yz = EncodedColumn::from_option_codes(
            yz_codes,
            vec!["00".into(), "01".into(), "10".into(), "11".into()],
        );
        let lhs = mi(&x, &yz);
        let rhs = mi(&x, &y) + cmi(&x, &z, &[&y]);
        assert!(
            (lhs - rhs).abs() < 1e-9,
            "chain rule violated: {lhs} vs {rhs}"
        );
    }
}
