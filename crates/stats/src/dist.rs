//! Continuous distribution functions needed by the statistical tests:
//! standard normal, chi-squared, and Fisher's F. Implemented via the
//! classic special functions (Lanczos log-gamma, regularized incomplete
//! gamma and beta) to double precision.

use std::f64::consts::PI;

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Published Lanczos(g = 7) coefficients, kept verbatim.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma P(a, x).
pub(crate) fn reg_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0);
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series expansion.
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
    } else {
        1.0 - reg_gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma Q(a, x) by continued fraction
/// (valid for x >= a + 1).
fn reg_gamma_q_cf(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1e308;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta I_x(a, b) via Lentz's continued fraction.
pub(crate) fn reg_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0 && (0.0..=1.0).contains(&x));
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    // Use the orientation whose continued fraction converges fastest; the
    // complement is computed inline (recursing can ping-pong when x sits
    // exactly on the boundary, e.g. x = 0.5 with a = b).
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < 1e-300 {
        d = 1e-300;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        // Even step.
        let num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 + num * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = 1.0 + num / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let num = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 + num * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = 1.0 + num / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// Standard normal CDF Φ(z).
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc_approx(-z / std::f64::consts::SQRT_2)
}

/// Complementary error function (Numerical Recipes' rational Chebyshev
/// fit, |error| < 1.2e-7, refined by one Newton step against the series
/// for small arguments where precision matters).
fn erfc_approx(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Chi-squared survival function P(X > x) with k degrees of freedom.
pub(crate) fn chi2_sf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    1.0 - reg_gamma_p(k / 2.0, x / 2.0)
}

/// F-distribution survival function P(X > x) with (d1, d2) degrees of
/// freedom.
pub(crate) fn f_sf(x: f64, d1: f64, d2: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    reg_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..10u64 {
            let fact: u64 = (1..n).product::<u64>().max(1);
            let expect = (fact as f64).ln();
            assert!(
                (ln_gamma(n as f64) - expect).abs() < 1e-9,
                "ln_gamma({n}) = {} expected {expect}",
                ln_gamma(n as f64)
            );
        }
        // Gamma(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - 0.5 * PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.9750021).abs() < 1e-5);
        assert!((normal_cdf(-1.96) - 0.0249979).abs() < 1e-5);
        assert!((normal_cdf(2.5758) - 0.995).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.9999999);
        assert!(normal_cdf(-8.0) < 1e-7);
    }

    #[test]
    fn chi2_reference_values() {
        // Critical values: P(X > 3.841) = 0.05 for k=1;
        // P(X > 21.026) = 0.05 for k=12.
        assert!((chi2_sf(3.841, 1.0) - 0.05).abs() < 1e-3);
        assert!((chi2_sf(21.026, 12.0) - 0.05).abs() < 1e-3);
        assert!((chi2_sf(5.0, 5.0) - 0.4159).abs() < 1e-3);
        assert_eq!(chi2_sf(0.0, 3.0), 1.0);
    }

    #[test]
    fn f_reference_values() {
        // P(F > 4.75) ≈ 0.05 for (1, 12); P(F > 2.69) ≈ 0.05 for (4, 20).
        assert!((f_sf(4.747, 1.0, 12.0) - 0.05).abs() < 2e-3);
        assert!((f_sf(2.866, 4.0, 20.0) - 0.05).abs() < 2e-3);
        assert_eq!(f_sf(0.0, 3.0, 10.0), 1.0);
        // Median of F(10,10) is 1.
        assert!((f_sf(1.0, 10.0, 10.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn incomplete_gamma_limits() {
        assert_eq!(reg_gamma_p(2.0, 0.0), 0.0);
        assert!(reg_gamma_p(2.0, 100.0) > 0.999999);
        // P(1, x) = 1 - e^-x
        for x in [0.1, 1.0, 3.0] {
            assert!((reg_gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-10);
        }
    }

    #[test]
    fn incomplete_beta_limits_and_symmetry() {
        assert_eq!(reg_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(reg_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for x in [0.2, 0.5, 0.8] {
            let lhs = reg_beta(2.5, 4.0, x);
            let rhs = 1.0 - reg_beta(4.0, 2.5, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10);
        }
        // I_x(1,1) = x (uniform).
        assert!((reg_beta(1.0, 1.0, 0.37) - 0.37).abs() < 1e-10);
    }
}
