//! Malformed input is an error, never a panic, on every public entry point
//! of the crate: the kernel, the joint table, each measure and the CI test
//! all answer inconsistent column lengths and negative or non-finite IPW
//! weights with `TabularError::InvalidArgument`.

use infotheory::kernel::try_accumulate;
use infotheory::{
    ci_test, conditional_entropy, conditional_mutual_information, entropy, interaction_information,
    joint_entropy, mutual_information, CiTestConfig, JointTable, DEFAULT_DENSE_CELLS,
};
use tabular::{Column, ColumnView, EncodedColumn, TabularError};

fn enc(vals: &[&str]) -> EncodedColumn {
    Column::from_str_values("c", vals.iter().map(|v| Some(*v)).collect()).encode()
}

/// One malformed input: two columns and optional weights, plus the text the
/// error message must contain.
struct Case {
    name: &'static str,
    x: EncodedColumn,
    y: EncodedColumn,
    weights: Option<Vec<f64>>,
    message: &'static str,
}

fn cases() -> Vec<Case> {
    let weighted = |name, w: [f64; 2]| Case {
        name,
        x: enc(&["a", "b"]),
        y: enc(&["0", "1"]),
        weights: Some(w.to_vec()),
        message: "invalid IPW weight",
    };
    vec![
        Case {
            name: "mismatched lengths",
            x: enc(&["a"]),
            y: enc(&["a", "b"]),
            weights: None,
            message: "equal length",
        },
        weighted("infinite weight", [1.0, f64::INFINITY]),
        weighted("NaN weight", [1.0, f64::NAN]),
        weighted("negative first weight", [-1.0, 1.0]),
        weighted("negative second weight", [1.0, -0.5]),
    ]
}

#[test]
fn malformed_input_is_an_error_at_every_entry_point() {
    let config = CiTestConfig::default();
    for case in cases() {
        let (x, y) = (ColumnView::from(&case.x), ColumnView::from(&case.y));
        let w = case.weights.as_deref();
        let mut results: Vec<(&str, Result<(), TabularError>)> = vec![
            (
                "try_accumulate dense",
                try_accumulate(&[x, y], w, DEFAULT_DENSE_CELLS).map(drop),
            ),
            (
                "try_accumulate sparse",
                try_accumulate(&[x, y], w, 0).map(drop),
            ),
            (
                "JointTable::try_build",
                JointTable::try_build(&[x, y], w).map(drop),
            ),
            (
                "JointTable::try_build_with_threshold",
                JointTable::try_build_with_threshold(&[x, y], w, 0).map(drop),
            ),
            ("joint_entropy", joint_entropy(&[x, y], w).map(drop)),
            (
                "conditional_entropy",
                conditional_entropy(x, &[y], w).map(drop),
            ),
            ("mutual_information", mutual_information(x, y, w).map(drop)),
            (
                "conditional_mutual_information",
                conditional_mutual_information(x, y, &[y], w).map(drop),
            ),
            (
                "interaction_information",
                interaction_information(x, y, y, w).map(drop),
            ),
            ("ci_test", ci_test(x, y, &[], w, config).map(drop)),
            ("ci_test given z", ci_test(x, y, &[x], w, config).map(drop)),
        ];
        // `entropy` reads one column, so only the weight cases apply to it.
        if w.is_some() {
            results.push(("entropy", entropy(x, w).map(drop)));
        }
        for (entry, result) in results {
            match result {
                Err(TabularError::InvalidArgument(msg)) => assert!(
                    msg.contains(case.message),
                    "{}: {entry} said {msg:?}",
                    case.name
                ),
                other => panic!("{}: {entry} returned {other:?}", case.name),
            }
        }
    }
}
