//! Closed-form queueing-theory predictions used to cross-validate the
//! simulator.
//!
//! The paper's §II-B argument for scale-up queueing is exactly the
//! textbook M/M/c-vs-c×M/M/1 comparison; HyperPlane's contribution is
//! making the scale-up organization *implementable*. This module provides
//! the closed forms — M/M/1, M/M/c (Erlang-C), and M/G/1
//! (Pollaczek–Khinchine) — and the validation harness checks that the
//! discrete-event engine converges to them in the regimes where they
//! apply (single bottleneck queue, negligible notification overhead).

/// Mean sojourn (wait + service) time of an M/M/1 queue, in the same time
/// unit as `1/mu`.
///
/// # Panics
///
/// Panics unless `0 < lambda < mu`.
pub fn mm1_sojourn(lambda: f64, mu: f64) -> f64 {
    assert!(
        lambda > 0.0 && mu > lambda,
        "need 0 < lambda < mu, got {lambda}, {mu}"
    );
    1.0 / (mu - lambda)
}

/// Erlang-C: probability an arrival to an M/M/c queue must wait.
///
/// # Panics
///
/// Panics unless `c >= 1` and `lambda < c*mu`.
fn erlang_c(lambda: f64, mu: f64, c: usize) -> f64 {
    assert!(c >= 1, "need at least one server");
    let a = lambda / mu; // offered load in Erlangs
    let rho = a / c as f64;
    assert!(lambda > 0.0 && rho < 1.0, "need rho < 1, got {rho}");
    // Sum_{k=0}^{c-1} a^k / k!  computed iteratively.
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..c {
        term *= a / k as f64;
        sum += term;
    }
    let tail = term * a / c as f64 / (1.0 - rho);
    tail / (sum + tail)
}

/// Mean sojourn time of an M/M/c queue.
///
/// # Panics
///
/// Panics unless `c >= 1` and `lambda < c*mu` (the Erlang-C domain).
pub fn mmc_sojourn(lambda: f64, mu: f64, c: usize) -> f64 {
    let pw = erlang_c(lambda, mu, c);
    let rho = lambda / (c as f64 * mu);
    pw / (c as f64 * mu * (1.0 - rho)) + 1.0 / mu
}

/// Pollaczek–Khinchine: mean sojourn time of an M/G/1 queue with mean
/// service `es` and squared coefficient of variation `scv`.
///
/// # Panics
///
/// Panics unless utilization is below one.
pub fn mg1_sojourn(lambda: f64, es: f64, scv: f64) -> f64 {
    let rho = lambda * es;
    assert!(lambda > 0.0 && rho < 1.0, "need rho < 1, got {rho}");
    assert!(scv >= 0.0, "scv must be non-negative");
    es + lambda * es * es * (1.0 + scv) / (2.0 * (1.0 - rho))
}

/// The scale-up advantage factor the paper's §II-B appeals to: mean
/// sojourn of c independent M/M/1 queues (each fed `lambda/c`) over one
/// M/M/c fed `lambda`.
///
/// Always ≥ 1; grows with utilization.
pub fn scale_up_advantage(lambda: f64, mu: f64, c: usize) -> f64 {
    let per_queue = mm1_sojourn(lambda / c as f64, mu);
    per_queue / mmc_sojourn(lambda, mu, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_textbook_point() {
        // rho = 0.5, mu = 1: sojourn = 2.
        assert!((mm1_sojourn(0.5, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_degenerates_to_mm1() {
        // For c = 1, P(wait) = rho.
        for rho in [0.1, 0.5, 0.9] {
            assert!((erlang_c(rho, 1.0, 1) - rho).abs() < 1e-12, "rho={rho}");
        }
        // And M/M/c sojourn with c=1 equals M/M/1.
        assert!((mmc_sojourn(0.7, 1.0, 1) - mm1_sojourn(0.7, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic call-center example: a = 8 Erlangs, c = 10 servers:
        // Erlang-C ≈ 0.4092.
        let p = erlang_c(8.0, 1.0, 10);
        assert!((p - 0.4092).abs() < 0.001, "got {p}");
    }

    #[test]
    fn pk_reduces_to_mm1_for_exponential() {
        // scv = 1 (exponential) must match M/M/1.
        let lambda = 0.6;
        let mu = 1.0;
        assert!((mg1_sojourn(lambda, 1.0 / mu, 1.0) - mm1_sojourn(lambda, mu)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_service_halves_waiting() {
        // PK: scv=0 halves the *waiting* component vs exponential.
        let lambda = 0.8;
        let es = 1.0;
        let w_exp = mg1_sojourn(lambda, es, 1.0) - es;
        let w_det = mg1_sojourn(lambda, es, 0.0) - es;
        assert!((w_det / w_exp - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scale_up_beats_scale_out_and_grows_with_load() {
        let low = scale_up_advantage(4.0 * 0.3, 1.0, 4);
        let high = scale_up_advantage(4.0 * 0.9, 1.0, 4);
        assert!(low > 1.0);
        assert!(
            high > low,
            "advantage should grow with utilization: {low} -> {high}"
        );
        assert!(
            high > 2.0,
            "at 90% load M/M/4 should be >2x better, got {high}"
        );
    }

    #[test]
    #[should_panic(expected = "rho < 1")]
    fn overload_is_rejected() {
        let _ = mmc_sojourn(4.0, 1.0, 3);
    }
}
