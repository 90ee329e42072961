//! Binary logistic regression fitted by iteratively re-weighted least squares
//! (Newton–Raphson).
//!
//! MESA uses logistic regression at pre-processing time to estimate the
//! selection probability `P(R_E = 1 | X)` of each extracted attribute from the
//! fully observed attributes of the input dataset; the inverse of that
//! probability becomes the IPW weight of each complete case (Section 3.2).
//!
//! Every fit runs through one kernel, [`logistic_fit_lockstep`], which
//! advances several outcomes over one shared [`LogisticDesign`] together —
//! MESA fits every biased attribute of a query against the same design.
//! [`logistic_fit`] and [`logistic_fit_weighted`] are its one-outcome forms.

use crate::matrix::{Matrix, MatrixError};
use crate::ols::FitError;

/// A fitted logistic regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticFit {
    /// Intercept followed by one coefficient per predictor (input order).
    pub coefficients: Vec<f64>,
    /// Names matching `coefficients` (first entry is `"(intercept)"`).
    pub names: Vec<String>,
    /// Number of Newton iterations performed.
    pub iterations: usize,
    /// Whether the optimiser converged before the iteration cap.
    pub converged: bool,
    /// Log-likelihood at the final iterate.
    pub log_likelihood: f64,
}

impl LogisticFit {
    /// Predicted probability `P(y = 1 | x)` for one feature vector (without
    /// the intercept term — it is added internally).
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len() + 1, self.coefficients.len());
        let mut z = self.coefficients[0];
        for (i, f) in features.iter().enumerate() {
            z += self.coefficients[i + 1] * f;
        }
        sigmoid(z)
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Configuration for the IRLS optimiser.
#[derive(Debug, Clone, Copy)]
pub struct LogisticConfig {
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the max absolute coefficient update.
    pub tol: f64,
    /// L2 ridge penalty (applied to all coefficients except the intercept);
    /// a small positive value keeps the Hessian invertible under separation.
    pub ridge: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            max_iter: 50,
            tol: 1e-8,
            ridge: 1e-6,
        }
    }
}

/// Most predictors one fit takes besides the intercept. Inside the kernel
/// the design's row width (at most `MAX_PREDICTORS + 1`) is a compile-time
/// constant, so the IRLS loop runs over fixed-size arrays.
pub const MAX_PREDICTORS: usize = 6;

/// A design matrix shared by several fits: one row per observation, the
/// intercept column first and then one column per predictor, flat and
/// row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticDesign {
    names: Vec<String>,
    width: usize,
    values: Vec<f64>,
}

impl LogisticDesign {
    /// Builds the design of `n_rows` observations from `(name, values)`
    /// predictor columns, each `n_rows` long. At most [`MAX_PREDICTORS`]
    /// predictors are accepted, and there must be at least as many rows as
    /// parameters.
    pub fn new(n_rows: usize, predictors: &[(String, Vec<f64>)]) -> Result<Self, FitError> {
        if predictors.len() > MAX_PREDICTORS {
            return Err(FitError::ShapeMismatch(format!(
                "{} predictors exceed the maximum of {MAX_PREDICTORS}",
                predictors.len()
            )));
        }
        let width = predictors.len() + 1;
        if n_rows < width {
            return Err(FitError::TooFewRows {
                rows: n_rows,
                params: width,
            });
        }
        for (name, col) in predictors {
            if col.len() != n_rows {
                return Err(FitError::ShapeMismatch(format!(
                    "predictor {name} has {} rows, outcome has {n_rows}",
                    col.len()
                )));
            }
        }
        let mut values = vec![0.0f64; n_rows * width];
        for (i, row) in values.chunks_exact_mut(width).enumerate() {
            row[0] = 1.0;
            for (x, (_, col)) in row[1..].iter_mut().zip(predictors) {
                *x = col[i];
            }
        }
        let mut names = Vec::with_capacity(width);
        names.push("(intercept)".to_string());
        names.extend(predictors.iter().map(|(n, _)| n.clone()));
        Ok(LogisticDesign {
            names,
            width,
            values,
        })
    }

    /// Number of observations.
    pub fn n_rows(&self) -> usize {
        self.values.len() / self.width
    }

    /// The rows, each `1 + predictors` wide with the intercept's 1.0 first;
    /// `&row[1..]` is what [`LogisticFit::predict_proba`] takes.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.width)
    }
}

/// Fits `P(y=1 | X) = sigmoid(b0 + X b)` by Newton–Raphson / IRLS.
///
/// `y` entries must be 0.0 or 1.0; `predictors` is a list of `(name, values)`
/// columns of the same length as `y`. The one-outcome form of
/// [`logistic_fit_lockstep`].
pub fn logistic_fit(
    y: &[f64],
    predictors: &[(String, Vec<f64>)],
    config: LogisticConfig,
) -> Result<LogisticFit, FitError> {
    for &v in y {
        if v != 0.0 && v != 1.0 {
            return Err(FitError::ShapeMismatch(format!(
                "outcome value {v} is not 0/1"
            )));
        }
    }
    logistic_fit_weighted(y, predictors, None, config)
}

/// Weighted (binomial) logistic regression: `y` entries are success
/// *proportions* in `[0, 1]` and `row_weights` gives the number of
/// observations (or any non-negative weight) behind each row.
///
/// This is the grouped form of [`logistic_fit`]: collapsing rows with
/// identical discrete feature vectors into one weighted row reaches the same
/// optimum while running IRLS over the number of *distinct combinations*
/// instead of the number of rows.
pub fn logistic_fit_weighted(
    y: &[f64],
    predictors: &[(String, Vec<f64>)],
    row_weights: Option<&[f64]>,
    config: LogisticConfig,
) -> Result<LogisticFit, FitError> {
    let design = LogisticDesign::new(y.len(), predictors)?;
    logistic_fit_lockstep(&design, &[y], row_weights, config)
        .pop()
        .expect("the kernel returns one result per outcome")
}

/// Fits one weighted logistic model per outcome in `outcomes`, all over the
/// same `design` and `row_weights`, returning the results in input order.
///
/// The fits advance in lockstep: each Newton iteration reads every design
/// row once for all fits still running, and shares the row's `x_j·x_k`
/// products among them. Each fit keeps its own expressions and row order,
/// so its coefficients, iteration count and log-likelihood are bit for bit
/// those of fitting it alone. A fit that fails (bad outcome values, a
/// singular Hessian) fails alone; the others carry on. Polls the
/// cooperative deadline ([`parallel::checkpoint`]) once per iteration.
pub fn logistic_fit_lockstep(
    design: &LogisticDesign,
    outcomes: &[&[f64]],
    row_weights: Option<&[f64]>,
    config: LogisticConfig,
) -> Vec<Result<LogisticFit, FitError>> {
    let n = design.n_rows();
    let weights_error = row_weights.and_then(|w| invalid_row_weights(w, n));
    let checks: Vec<Option<FitError>> = outcomes
        .iter()
        .map(|y| invalid_outcome(y, n).or_else(|| weights_error.clone()))
        .collect();
    let valid: Vec<&[f64]> = outcomes
        .iter()
        .zip(&checks)
        .filter(|(_, check)| check.is_none())
        .map(|(&y, _)| y)
        .collect();
    let mut fitted = irls_dispatch(design, &valid, row_weights, config).into_iter();
    checks
        .into_iter()
        .map(|check| match check {
            Some(e) => Err(e),
            None => fitted.next().expect("one fit per valid outcome"),
        })
        .collect()
}

fn invalid_outcome(y: &[f64], n: usize) -> Option<FitError> {
    if y.len() != n {
        return Some(FitError::ShapeMismatch(format!(
            "outcome has {} rows, design has {n}",
            y.len()
        )));
    }
    y.iter().find(|v| !(0.0..=1.0).contains(*v)).map(|v| {
        FitError::ShapeMismatch(format!("outcome value {v} is not a proportion in [0, 1]"))
    })
}

fn invalid_row_weights(w: &[f64], n: usize) -> Option<FitError> {
    if w.len() != n {
        return Some(FitError::ShapeMismatch(format!(
            "row weights have {} entries, outcome has {n}",
            w.len()
        )));
    }
    w.iter()
        .find(|v| !v.is_finite() || **v < 0.0)
        .map(|v| FitError::ShapeMismatch(format!("row weight {v} is not finite and non-negative")))
}

// The dispatch below has one arm per row width up to `MAX_PREDICTORS + 1`.
const _: () = assert!(MAX_PREDICTORS + 1 == 7);

/// Runs [`irls`] at the design's row width as a compile-time constant.
fn irls_dispatch(
    design: &LogisticDesign,
    outcomes: &[&[f64]],
    row_weights: Option<&[f64]>,
    config: LogisticConfig,
) -> Vec<Result<LogisticFit, FitError>> {
    macro_rules! at_width {
        ($($p:literal)*) => {
            match design.width {
                $($p => irls::<$p>(
                    design.values.as_chunks::<$p>().0,
                    &design.names,
                    outcomes,
                    row_weights,
                    config,
                ),)*
                w => outcomes
                    .iter()
                    .map(|_| Err(FitError::ShapeMismatch(format!("design width {w} is unsupported"))))
                    .collect(),
            }
        };
    }
    at_width!(1 2 3 4 5 6 7)
}

/// One running fit of the lockstep kernel.
struct Fit<'y, const P: usize> {
    slot: usize,
    y: &'y [f64],
    beta: [f64; P],
    grad: [f64; P],
    /// Upper triangle of the Hessian (`hess[j][k]`, `k >= j`).
    hess: [[f64; P]; P],
    iterations: usize,
}

impl<const P: usize> Fit<'_, P> {
    /// Ridge, Newton solve and damped update. Returns `Ok(true)` once the
    /// update is below the tolerance.
    fn newton_step(&mut self, config: LogisticConfig) -> Result<bool, FitError> {
        // Symmetrise into a matrix and add the ridge term (not on the
        // intercept).
        let mut hess = Matrix::zeros(P, P);
        for j in 0..P {
            for k in j..P {
                hess[(j, k)] = self.hess[j][k];
                hess[(k, j)] = self.hess[j][k];
            }
        }
        for j in 1..P {
            hess[(j, j)] += config.ridge;
            self.grad[j] -= config.ridge * self.beta[j];
        }
        let step = match hess.solve(&Matrix::column_vector(self.grad.to_vec())) {
            Ok(s) => s,
            Err(MatrixError::Singular) => return Err(FitError::Singular),
            Err(MatrixError::ShapeMismatch(m)) => return Err(FitError::ShapeMismatch(m)),
        };
        // Damp the step while preserving its direction: a hard element-wise
        // clamp would distort the Newton direction under quasi-separation.
        let step_norm: f64 = (0..P).map(|j| step[(j, 0)].abs()).fold(0.0, f64::max);
        let scale = if step_norm > 5.0 {
            5.0 / step_norm
        } else {
            1.0
        };
        let mut max_update: f64 = 0.0;
        for j in 0..P {
            let delta = step[(j, 0)] * scale;
            self.beta[j] += delta;
            max_update = max_update.max(delta.abs());
        }
        Ok(max_update < config.tol)
    }
}

/// The lockstep IRLS kernel over `P`-wide rows (intercept first). Returns
/// one result per outcome, in order.
fn irls<const P: usize>(
    rows: &[[f64; P]],
    names: &[String],
    outcomes: &[&[f64]],
    row_weights: Option<&[f64]>,
    config: LogisticConfig,
) -> Vec<Result<LogisticFit, FitError>> {
    if outcomes.is_empty() {
        return Vec::new();
    }
    let mut results: Vec<Option<Result<LogisticFit, FitError>>> = vec![None; outcomes.len()];
    let mut running: Vec<Fit<'_, P>> = outcomes
        .iter()
        .enumerate()
        .map(|(slot, &y)| Fit {
            slot,
            y,
            beta: [0.0; P],
            grad: [0.0; P],
            hess: [[0.0; P]; P],
            iterations: 0,
        })
        .collect();
    let mut done: Vec<(Fit<'_, P>, bool)> = Vec::with_capacity(running.len());
    let mut products = [[0.0f64; P]; P];
    // mesa-lint: hot-loop -- one Newton iteration of every running fit; polls the cooperative deadline once per iteration
    for iter in 0..config.max_iter {
        if running.is_empty() {
            break;
        }
        parallel::checkpoint();
        for fit in &mut running {
            fit.iterations = iter + 1;
            fit.grad = [0.0; P];
            fit.hess = [[0.0; P]; P];
        }
        // Gradient and Hessian (upper triangle), one pass over the rows for
        // all fits. `x_j·x_k·w` associates as `(x_j·x_k)·w`, so the shared
        // product leaves every fit's sums unchanged.
        for (i, row) in rows.iter().enumerate() {
            let wi = row_weights.map(|w| w[i]).unwrap_or(1.0);
            for (j, &xj) in row.iter().enumerate() {
                for (p, &xk) in products[j][j..].iter_mut().zip(&row[j..]) {
                    *p = xj * xk;
                }
            }
            for fit in &mut running {
                let mut z = 0.0;
                for (x, b) in row.iter().zip(&fit.beta) {
                    z += x * b;
                }
                let mu = sigmoid(z);
                let w = (mu * (1.0 - mu)).max(1e-10) * wi;
                let resid = (fit.y[i] - mu) * wi;
                for (j, (g, &xj)) in fit.grad.iter_mut().zip(row).enumerate() {
                    *g += xj * resid;
                    for (h, &p) in fit.hess[j][j..].iter_mut().zip(&products[j][j..]) {
                        *h += p * w;
                    }
                }
            }
        }
        let mut k = 0;
        while k < running.len() {
            match running[k].newton_step(config) {
                Ok(false) => k += 1,
                Ok(true) => done.push((running.swap_remove(k), true)),
                Err(e) => {
                    results[running[k].slot] = Some(Err(e));
                    running.swap_remove(k);
                }
            }
        }
    }
    done.extend(running.into_iter().map(|fit| (fit, false)));

    // Final log-likelihoods (weighted; constant binomial coefficients of the
    // grouped form are omitted), one pass over the rows for all fits.
    let mut log_likelihood = vec![0.0f64; done.len()];
    for (i, row) in rows.iter().enumerate() {
        let wi = row_weights.map(|w| w[i]).unwrap_or(1.0);
        for ((fit, _), ll) in done.iter().zip(&mut log_likelihood) {
            let mut z = 0.0;
            for (x, b) in row.iter().zip(&fit.beta) {
                z += x * b;
            }
            let mu = sigmoid(z).clamp(1e-12, 1.0 - 1e-12);
            let y = fit.y[i];
            *ll += wi * (y * mu.ln() + (1.0 - y) * (1.0 - mu).ln());
        }
    }
    for ((fit, converged), log_likelihood) in done.into_iter().zip(log_likelihood) {
        results[fit.slot] = Some(Ok(LogisticFit {
            coefficients: fit.beta.to_vec(),
            names: names.to_vec(),
            iterations: fit.iterations,
            converged,
            log_likelihood,
        }));
    }
    results
        .into_iter()
        .map(|r| r.expect("every fit finishes or fails"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fit(y: &[f64], preds: &[(String, Vec<f64>)]) -> LogisticFit {
        logistic_fit(y, preds, LogisticConfig::default()).unwrap()
    }

    /// The textbook IRLS loop, one fit at a time over a dynamic-width
    /// design: the oracle the lockstep kernel must match bit for bit.
    /// Inputs are assumed valid.
    fn oracle_fit(
        y: &[f64],
        predictors: &[(String, Vec<f64>)],
        row_weights: Option<&[f64]>,
        config: LogisticConfig,
    ) -> Result<LogisticFit, FitError> {
        let n = y.len();
        let p = predictors.len() + 1;
        let mut design = vec![0.0f64; n * p];
        for i in 0..n {
            design[i * p] = 1.0;
            for (j, (_, col)) in predictors.iter().enumerate() {
                design[i * p + j + 1] = col[i];
            }
        }
        let mut beta = vec![0.0; p];
        let mut converged = false;
        let mut iterations = 0;
        for iter in 0..config.max_iter {
            iterations = iter + 1;
            let mut grad = vec![0.0f64; p];
            let mut hess = Matrix::zeros(p, p);
            for i in 0..n {
                let row = &design[i * p..(i + 1) * p];
                let mut z = 0.0;
                for (x, b) in row.iter().zip(&beta) {
                    z += x * b;
                }
                let wi = row_weights.map(|w| w[i]).unwrap_or(1.0);
                let mu = sigmoid(z);
                let w = (mu * (1.0 - mu)).max(1e-10) * wi;
                let resid = (y[i] - mu) * wi;
                for j in 0..p {
                    grad[j] += row[j] * resid;
                    for k in j..p {
                        hess[(j, k)] += row[j] * row[k] * w;
                    }
                }
            }
            for j in 0..p {
                for k in j + 1..p {
                    hess[(k, j)] = hess[(j, k)];
                }
            }
            for j in 1..p {
                hess[(j, j)] += config.ridge;
                grad[j] -= config.ridge * beta[j];
            }
            let step = match hess.solve(&Matrix::column_vector(grad)) {
                Ok(s) => s,
                Err(MatrixError::Singular) => return Err(FitError::Singular),
                Err(MatrixError::ShapeMismatch(m)) => return Err(FitError::ShapeMismatch(m)),
            };
            let step_norm: f64 = (0..p).map(|j| step[(j, 0)].abs()).fold(0.0, f64::max);
            let scale = if step_norm > 5.0 {
                5.0 / step_norm
            } else {
                1.0
            };
            let mut max_update: f64 = 0.0;
            for j in 0..p {
                let delta = step[(j, 0)] * scale;
                beta[j] += delta;
                max_update = max_update.max(delta.abs());
            }
            if max_update < config.tol {
                converged = true;
                break;
            }
        }
        let mut log_likelihood = 0.0;
        for i in 0..n {
            let row = &design[i * p..(i + 1) * p];
            let mut z = 0.0;
            for (x, b) in row.iter().zip(&beta) {
                z += x * b;
            }
            let wi = row_weights.map(|w| w[i]).unwrap_or(1.0);
            let mu = sigmoid(z).clamp(1e-12, 1.0 - 1e-12);
            log_likelihood += wi * (y[i] * mu.ln() + (1.0 - y[i]) * (1.0 - mu).ln());
        }
        let mut names = vec!["(intercept)".to_string()];
        names.extend(predictors.iter().map(|(n, _)| n.clone()));
        Ok(LogisticFit {
            coefficients: beta,
            names,
            iterations,
            converged,
            log_likelihood,
        })
    }

    /// Equality down to the bits of every float.
    fn same_bits(a: &Result<LogisticFit, FitError>, b: &Result<LogisticFit, FitError>) -> bool {
        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                bits(&a.coefficients) == bits(&b.coefficients)
                    && a.names == b.names
                    && a.iterations == b.iterations
                    && a.converged == b.converged
                    && a.log_likelihood.to_bits() == b.log_likelihood.to_bits()
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// Fits `outcomes` in one lockstep call and asserts each result equals
    /// its separate oracle fit bit for bit; returns the lockstep results.
    fn assert_lockstep_matches_oracle(
        predictors: &[(String, Vec<f64>)],
        outcomes: &[Vec<f64>],
        row_weights: Option<&[f64]>,
        config: LogisticConfig,
    ) -> Vec<Result<LogisticFit, FitError>> {
        let n = outcomes[0].len();
        let design = LogisticDesign::new(n, predictors).unwrap();
        let ys: Vec<&[f64]> = outcomes.iter().map(Vec::as_slice).collect();
        let fits = logistic_fit_lockstep(&design, &ys, row_weights, config);
        assert_eq!(fits.len(), outcomes.len());
        for (k, (got, y)) in fits.iter().zip(outcomes).enumerate() {
            let want = oracle_fit(y, predictors, row_weights, config);
            assert!(same_bits(got, &want), "fit {k}: {got:?} != {want:?}");
        }
        fits
    }

    /// Small-integer predictor columns `x1..` of `n` rows read from `cells`.
    fn int_design(n: usize, n_pred: usize, cells: &[u32]) -> Vec<(String, Vec<f64>)> {
        (0..n_pred)
            .map(|j| {
                let col = (0..n).map(|i| f64::from(cells[j * n + i])).collect();
                (format!("x{}", j + 1), col)
            })
            .collect()
    }

    const MAX_ROWS: usize = 48;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lockstep kernel equals K separate oracle fits bit for bit —
        /// coefficients, iterations, `converged`, log-likelihood — over
        /// random small-integer designs of every supported width, with and
        /// without row weights. The outcomes mix random indicators (which
        /// converge at different iterations), a separable indicator and a
        /// proportion; mode 2 makes some fits singular.
        #[test]
        fn lockstep_equals_separate_oracle_fits(
            n in 8usize..MAX_ROWS,
            n_pred in 0usize..=MAX_PREDICTORS,
            cells in prop::collection::vec(0u32..4, MAX_ROWS * MAX_PREDICTORS),
            bits in prop::collection::vec(0u32..2, MAX_ROWS * 3),
            weights in prop::collection::vec(0u32..4, MAX_ROWS),
            mode in 0u32..3,
        ) {
            let n = n.max(n_pred + 1);
            let predictors = int_design(n, n_pred, &cells);
            let random = |k: usize| (0..n).map(|i| f64::from(bits[k * MAX_ROWS + i])).collect::<Vec<_>>();
            let separable: Vec<f64> = match predictors.first() {
                Some((_, x)) => x.iter().map(|&v| if v >= 2.0 { 1.0 } else { 0.0 }).collect(),
                None => random(2),
            };
            let proportion: Vec<f64> = (0..n).map(|i| f64::from(cells[i]) / 3.0).collect();
            let outcomes = vec![random(0), random(1), separable, proportion];
            // Mode 0 is unweighted, mode 1 has small-integer row weights, and
            // mode 2 drops the ridge under tiny row weights, where saturating
            // fits go singular.
            let (w, config): (Vec<f64>, _) = match mode {
                2 => (vec![1e-4; n], LogisticConfig { ridge: 0.0, ..LogisticConfig::default() }),
                _ => (weights[..n].iter().map(|&v| f64::from(v)).collect(), LogisticConfig::default()),
            };
            let row_weights = (mode > 0).then_some(w.as_slice());
            assert_lockstep_matches_oracle(&predictors, &outcomes, row_weights, config);
        }
    }

    #[test]
    fn lockstep_fits_finish_at_different_iterations() {
        let n = 60;
        let cells: Vec<u32> = (0..n * 2).map(|i| ((i * 7 + i / 5) % 4) as u32).collect();
        let predictors = int_design(n, 2, &cells);
        let x1 = &predictors[0].1;
        let noisy: Vec<f64> = (0..n).map(|i| ((i * 5 + i / 3) % 2) as f64).collect();
        let separable: Vec<f64> = x1
            .iter()
            .map(|&v| if v >= 2.0 { 1.0 } else { 0.0 })
            .collect();
        let fits = assert_lockstep_matches_oracle(
            &predictors,
            &[noisy, separable],
            None,
            LogisticConfig::default(),
        );
        let noisy = fits[0].as_ref().unwrap();
        let separable = fits[1].as_ref().unwrap();
        assert!(noisy.converged);
        assert!(
            separable.iterations > noisy.iterations,
            "the separable fit runs on after the noisy one converged"
        );
    }

    #[test]
    fn a_singular_fit_fails_alone() {
        // Without a ridge the separable fit diverges; once its IRLS weights
        // hit the clamp, the tiny row weights push a Hessian pivot below the
        // solver's threshold, while the noisy fit stays well conditioned.
        let n = 40;
        let x: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        let separable: Vec<f64> = x
            .iter()
            .map(|&v| if v >= 2.0 { 1.0 } else { 0.0 })
            .collect();
        let noisy: Vec<f64> = (0..n).map(|i| ((i * 5 + i / 3) % 2) as f64).collect();
        let w = vec![1e-4; n];
        let fits = assert_lockstep_matches_oracle(
            &[("x".to_string(), x)],
            &[noisy, separable],
            Some(&w),
            LogisticConfig {
                ridge: 0.0,
                ..LogisticConfig::default()
            },
        );
        assert!(fits[0].is_ok());
        assert_eq!(fits[1], Err(FitError::Singular));
    }

    #[test]
    fn invalid_outcomes_fail_alone() {
        let design = LogisticDesign::new(3, &[("x".to_string(), vec![0.0, 1.0, 2.0])]).unwrap();
        let fits = logistic_fit_lockstep(
            &design,
            &[&[0.0, 1.0, 1.0], &[0.0, 2.0, 1.0], &[1.0]],
            None,
            LogisticConfig::default(),
        );
        assert!(fits[0].is_ok());
        assert!(matches!(fits[1], Err(FitError::ShapeMismatch(_))));
        assert!(matches!(fits[2], Err(FitError::ShapeMismatch(_))));
        assert!(LogisticDesign::new(
            10,
            &vec![("x".to_string(), vec![0.0; 10]); MAX_PREDICTORS + 1]
        )
        .is_err());
    }

    #[test]
    fn an_expired_deadline_cancels_the_fit() {
        let x: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        let y: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        let deadline = parallel::Deadline::after(std::time::Duration::ZERO);
        let result = std::panic::catch_unwind(|| {
            parallel::with_deadline(&deadline, || {
                logistic_fit(
                    &y,
                    &[("x".to_string(), x.clone())],
                    LogisticConfig::default(),
                )
            })
        });
        let payload = result.expect_err("the fit polls the deadline");
        assert!(payload.downcast_ref::<parallel::Cancelled>().is_some());
    }

    #[test]
    fn sigmoid_bounds() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(50.0) > 0.999999);
        assert!(sigmoid(-50.0) < 1e-6);
    }

    #[test]
    fn recovers_known_relationship() {
        // y = 1 when x > 0.5 with a smooth boundary
        let x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let y: Vec<f64> = x.iter().map(|&x| if x > 0.5 { 1.0 } else { 0.0 }).collect();
        let model = fit(&y, &[("x".to_string(), x)]);
        assert!(model.coefficients[1] > 0.0, "slope should be positive");
        assert!(model.predict_proba(&[0.9]) > 0.9);
        assert!(model.predict_proba(&[0.1]) < 0.1);
        assert!(model.predict_proba(&[0.5]) > 0.2 && model.predict_proba(&[0.5]) < 0.8);
    }

    #[test]
    fn intercept_only_matches_base_rate() {
        let y = vec![1.0, 1.0, 1.0, 0.0];
        let model = fit(&y, &[]);
        assert!((model.predict_proba(&[]) - 0.75).abs() < 1e-4);
        assert!(model.converged);
    }

    #[test]
    fn balanced_noise_gives_half() {
        let y: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let x: Vec<f64> = (0..100).map(|i| ((i * 7) % 13) as f64).collect();
        let model = fit(&y, &[("x".to_string(), x)]);
        let p = model.predict_proba(&[6.0]);
        assert!(p > 0.3 && p < 0.7);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            logistic_fit(&[0.0, 2.0], &[], LogisticConfig::default()),
            Err(FitError::ShapeMismatch(_))
        ));
        assert!(matches!(
            logistic_fit(
                &[0.0],
                &[("x".to_string(), vec![1.0, 2.0])],
                LogisticConfig::default()
            ),
            Err(FitError::TooFewRows { .. })
        ));
        assert!(matches!(
            logistic_fit(
                &[0.0, 1.0, 1.0],
                &[("x".to_string(), vec![1.0, 2.0])],
                LogisticConfig::default()
            ),
            Err(FitError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn separable_data_stays_finite() {
        // Perfectly separable: without ridge/step capping this diverges.
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&x| if x >= 25.0 { 1.0 } else { 0.0 })
            .collect();
        let model = fit(&y, &[("x".to_string(), x)]);
        assert!(model.coefficients.iter().all(|c| c.is_finite()));
        assert!(model.predict_proba(&[49.0]) > 0.9);
        assert!(model.predict_proba(&[0.0]) < 0.1);
    }

    #[test]
    fn grouped_fit_matches_ungrouped() {
        // 300 rows over 3 distinct feature values, collapsed to 3 weighted
        // binomial rows: same optimum.
        let x: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        let y: Vec<f64> = (0..300)
            .map(|i| {
                if (i % 3) as f64 + ((i / 3) % 4) as f64 > 2.5 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let full = fit(&y, &[("x".to_string(), x.clone())]);
        let mut tallies = [(0.0f64, 0.0f64); 3];
        for (xi, yi) in x.iter().zip(&y) {
            tallies[*xi as usize].0 += 1.0;
            tallies[*xi as usize].1 += yi;
        }
        let gx: Vec<f64> = vec![0.0, 1.0, 2.0];
        let gy: Vec<f64> = tallies.iter().map(|(n, k)| k / n).collect();
        let gw: Vec<f64> = tallies.iter().map(|(n, _)| *n).collect();
        let grouped = logistic_fit_weighted(
            &gy,
            &[("x".to_string(), gx)],
            Some(&gw),
            LogisticConfig::default(),
        )
        .unwrap();
        for (a, b) in full.coefficients.iter().zip(&grouped.coefficients) {
            assert!((a - b).abs() < 1e-6, "coefficients diverge: {a} vs {b}");
        }
        assert!((full.log_likelihood - grouped.log_likelihood).abs() < 1e-6);
    }

    #[test]
    fn weighted_rejects_bad_inputs() {
        let y = [0.5, 0.25];
        let preds = [("x".to_string(), vec![0.0, 1.0])];
        assert!(
            logistic_fit_weighted(&y, &preds, Some(&[1.0]), LogisticConfig::default()).is_err()
        );
        assert!(logistic_fit_weighted(
            &y,
            &preds,
            Some(&[1.0, f64::NAN]),
            LogisticConfig::default()
        )
        .is_err());
        assert!(
            logistic_fit_weighted(&[1.5, 0.0], &preds, None, LogisticConfig::default()).is_err()
        );
        // proportions are accepted by the weighted entry point
        assert!(
            logistic_fit_weighted(&y, &preds, Some(&[4.0, 4.0]), LogisticConfig::default()).is_ok()
        );
    }

    #[test]
    fn log_likelihood_improves_over_null() {
        let x: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&x| if x > 4.0 { 1.0 } else { 0.0 }).collect();
        let with_x = fit(&y, &[("x".to_string(), x)]);
        let null = fit(&y, &[]);
        assert!(with_x.log_likelihood > null.log_likelihood);
    }
}
