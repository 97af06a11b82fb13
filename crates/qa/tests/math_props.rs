//! Metamorphic property suites for the math layer.
//!
//! These complement `crates/math/tests/root_oracle.rs` (which cross-checks
//! the fast isolator against the Sturm oracle): here each property relates
//! a computation to a *transformed* run of itself — dense sampling as an
//! independent root oracle, translated/scaled inputs for Sturm counts, and
//! the boolean-algebra laws for interval sets — so a shared bug in both
//! root finders can still surface.
//!
//! The vendored `proptest` stand-in drives case generation (no shrinking —
//! a documented deviation from upstream; the differential suite's
//! structural shrinker lives in `pulse_qa::shrink` instead).

use proptest::prelude::*;
use pulse_math::{count_roots, poly_roots_in, Poly, RangeSet, Span};

fn poly_from_roots(roots: &[f64]) -> Poly {
    roots.iter().fold(Poly::constant(1.0), |acc, &r| acc.mul(&Poly::linear(-r, 1.0)))
}

fn arb_spans() -> impl Strategy<Value = Vec<Span>> {
    prop::collection::vec((0.0..90.0_f64, 0.1..10.0_f64), 0..6)
        .prop_map(|v| v.into_iter().map(|(lo, len)| Span::new(lo, lo + len)).collect())
}

/// A coefficient drawn to hit the trim edge cases as often as ordinary
/// values: exact zero, negative zero and magnitudes below the trim
/// threshold (1e-12) each come up about one draw in eight.
fn arb_coeff() -> impl Strategy<Value = f64> {
    (0usize..8, -8.0..8.0_f64).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => x * 1e-13,
        _ => x,
    })
}

/// Polynomials of degree 0–4 plus the zero polynomial, with interior
/// zeros, negative zeros and sub-threshold coefficients.
fn arb_poly() -> impl Strategy<Value = Poly> {
    prop::collection::vec(arb_coeff(), 0..6).prop_map(Poly::new)
}

fn bits(p: &Poly) -> Vec<u64> {
    p.coeffs().iter().map(|c| c.to_bits()).collect()
}

const DOMAIN: Span = Span { lo: -5.0, hi: 105.0 };

/// Membership probes stay clear of span endpoints, where half-open
/// boundaries and the merge epsilon make membership legitimately fuzzy.
fn probe_points(sets: &[&RangeSet]) -> Vec<f64> {
    let ends: Vec<f64> =
        sets.iter().flat_map(|s| s.spans().iter().flat_map(|sp| [sp.lo, sp.hi])).collect();
    let mut t = DOMAIN.lo;
    let mut out = Vec::new();
    while t < DOMAIN.hi {
        if ends.iter().all(|e| (e - t).abs() > 1e-3) {
            out.push(t);
        }
        t += 0.37;
    }
    out
}

proptest! {
    /// Dense sampling as an independent oracle: every strict sign change
    /// of p on a fine grid brackets at least one reported root.
    #[test]
    fn every_sampled_sign_change_brackets_a_root(
        coeffs in prop::collection::vec(-8.0..8.0_f64, 1..6)
    ) {
        let p = Poly::new(coeffs);
        prop_assume!(!p.is_zero());
        let roots = poly_roots_in(&p, -10.0, 10.0, 1e-12);
        let n = 2000;
        let step = 20.0 / n as f64;
        let mut prev_t = -10.0;
        let mut prev_v = p.eval(prev_t);
        for i in 1..=n {
            let t = -10.0 + i as f64 * step;
            let v = p.eval(t);
            // Strict, well-conditioned sign change only: tiny values near a
            // tangency are legitimately ambiguous.
            if prev_v * v < 0.0 && prev_v.abs() > 1e-9 && v.abs() > 1e-9 {
                prop_assert!(
                    roots.iter().any(|r| (prev_t - step..=t + step).contains(r)),
                    "sign change of {} in [{}, {}] has no root among {:?}",
                    p, prev_t, t, roots
                );
            }
            (prev_t, prev_v) = (t, v);
        }
    }

    /// Sturm count additivity: splitting the interval at a non-root
    /// partitions the count.
    #[test]
    fn sturm_count_is_additive_over_interval_splits(
        mut roots in prop::collection::vec(-9.0..9.0_f64, 1..5),
        m in -9.5..9.5_f64
    ) {
        roots.sort_by(f64::total_cmp);
        roots.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        let p = poly_from_roots(&roots);
        prop_assume!(p.eval(m).abs() > 1e-3);
        let whole = count_roots(&p, -10.0, 10.0);
        let left = count_roots(&p, -10.0, m);
        let right = count_roots(&p, m, 10.0);
        prop_assert_eq!(whole, left + right, "split at {} for {}", m, p);
    }

    /// Sturm counts are invariant under translating the polynomial and the
    /// interval together, and under scaling by a nonzero constant.
    #[test]
    fn sturm_count_is_translation_and_scale_invariant(
        mut roots in prop::collection::vec(-7.0..7.0_f64, 1..4),
        shift in -3.0..3.0_f64,
        scale in (-4.0..4.0_f64).prop_map(|s| if s.abs() < 0.1 { 2.0 } else { s })
    ) {
        roots.sort_by(f64::total_cmp);
        roots.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        let p = poly_from_roots(&roots);
        let shifted: Vec<f64> = roots.iter().map(|r| r + shift).collect();
        let q = poly_from_roots(&shifted);
        let base = count_roots(&p, -10.0, 10.0);
        prop_assert_eq!(count_roots(&q, -10.0 + shift, 10.0 + shift), base);
        prop_assert_eq!(count_roots(&p.scale(scale), -10.0, 10.0), base);
    }

    /// `RangeSet::from_spans` is order-insensitive (the NaN-safe total_cmp
    /// sort normalizes any permutation to the same set).
    #[test]
    fn from_spans_is_permutation_invariant(spans in arb_spans(), seed in 0u64..1000) {
        let a = RangeSet::from_spans(spans.clone());
        let mut perm = spans;
        // Deterministic pseudo-shuffle.
        let n = perm.len();
        for i in 0..n {
            let j = (seed as usize + i * 7) % n.max(1);
            perm.swap(i, j);
        }
        let b = RangeSet::from_spans(perm);
        prop_assert_eq!(a.spans(), b.spans());
    }

    /// Boolean-algebra laws, checked by sampled membership away from
    /// endpoints: commutativity, De Morgan, and subtract-as-intersect.
    #[test]
    fn interval_algebra_laws(sa in arb_spans(), sb in arb_spans()) {
        let a = RangeSet::from_spans(sa);
        let b = RangeSet::from_spans(sb);
        let union = a.union(&b);
        let inter = a.intersect(&b);
        let union_ba = b.union(&a);
        let inter_ba = b.intersect(&a);
        prop_assert_eq!(union.spans(), union_ba.spans(), "union commutes");
        prop_assert_eq!(inter.spans(), inter_ba.spans(), "intersect commutes");
        let de_morgan = a.complement(DOMAIN).intersect(&b.complement(DOMAIN));
        let sub = a.subtract(&b);
        let sub_alt = a.intersect(&b.complement(DOMAIN));
        for t in probe_points(&[&a, &b]) {
            prop_assert_eq!(union.contains(t), a.contains(t) || b.contains(t), "∪ at {}", t);
            prop_assert_eq!(inter.contains(t), a.contains(t) && b.contains(t), "∩ at {}", t);
            prop_assert_eq!(
                union.complement(DOMAIN).contains(t),
                de_morgan.contains(t),
                "De Morgan at {}", t
            );
            prop_assert_eq!(sub.contains(t), sub_alt.contains(t), "subtract at {}", t);
        }
    }

    /// Measure obeys inclusion–exclusion: |A| + |B| = |A∪B| + |A∩B|.
    #[test]
    fn measure_inclusion_exclusion(sa in arb_spans(), sb in arb_spans()) {
        let a = RangeSet::from_spans(sa);
        let b = RangeSet::from_spans(sb);
        let lhs = a.measure() + b.measure();
        let rhs = a.union(&b).measure() + a.intersect(&b).measure();
        prop_assert!((lhs - rhs).abs() < 1e-6, "{} vs {}", lhs, rhs);
    }

    /// The in-place window-function kernels reproduce the allocating
    /// operations bit for bit, trims and signed zeros included, whatever
    /// the destination held before.
    #[test]
    fn in_place_kernels_are_bit_exact(
        p in arb_poly(),
        stale in arb_poly(),
        a in arb_coeff(),
        b in arb_coeff(),
        k in arb_coeff(),
    ) {
        for (a, b) in [(1.0, b), (a, b), (1.0, -3.5)] {
            let mut out = stale.clone();
            p.compose_linear_into(a, b, &mut out);
            prop_assert_eq!(bits(&out), bits(&p.compose_linear(a, b)));
        }
        let mut x = p.clone();
        x.add_const_assign(k);
        prop_assert_eq!(bits(&x), bits(&p.add(&Poly::constant(k))));
        let mut x = p.clone();
        x.sub_const_assign(k);
        prop_assert_eq!(bits(&x), bits(&p.sub(&Poly::constant(k))));
    }
}
