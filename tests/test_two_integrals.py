"""The program's two definite integrals over [a, b], against an mpmath reference.

``lf_integral`` is the term-wise integral of the paper's local fractional
calculus, ``sum_k c_k G(1+k a)/G(1+(k+1) a) (b**((k+1)a) - a**((k+1)a))``.
The moment functional on the pulled-back segment,
``(b-a)**alpha * J[f(a + t(b-a))]``, which ``identity``'s right side and
both sides of ``holder`` read through :func:`composed_moment`, is the
Riemann-Liouville integral ``(1/G(alpha)) int_a^b (b-x)**(alpha-1) f(x) dx``.
Both read ``f(bt)`` term by term at a = 0, and both are the ordinary
integral at alpha = 1, so they agree there; elsewhere the term-wise
integral is the smaller, as pinned below on [0.5, 2].

The references are computed in 30 digits: the term-wise sum in mpmath
arithmetic, and the Riemann-Liouville integral by ``mp.quad`` after the
substitution ``u = (b-x)**alpha``, which removes the kernel's singularity:
``(1/G(1+alpha)) int_0^((b-a)**alpha) f(b - u**(1/alpha)) du``.
"""

import mpmath as mp
import pytest

from alphaineq.alphanum import AlphaContext
from alphaineq.harness import parse_function_spec
from alphaineq.quadrature import MomentFunctional, composed_moment
from alphaineq.series import lf_integral

FUNCTIONS = ("mono:2", "mono:3", "poly:1,0,0.5")
ALPHAS = (0.3, 0.5, 0.8, 1.0)
INTERVALS = ((0.0, 1.0), (0.0, 2.0), (0.5, 2.0))

#: (RL - term-wise) / RL on [0.5, 2], in percent to two significant digits, per alpha and function.
GAP_ON_HALF_TO_TWO = {
    0.3: {"mono:2": "27", "mono:3": "18", "poly:1,0,0.5": "48"},
    0.5: {"mono:2": "10", "mono:3": "5.1", "poly:1,0,0.5": "29"},
    0.8: {"mono:2": "1.7", "mono:3": "0.57", "poly:1,0,0.5": "9.3"},
}


def _integrals(spec, alpha, a, b):
    """The program's term-wise and Riemann-Liouville integrals of ``spec`` over [a, b], and their references."""
    ctx = AlphaContext(alpha)
    f = parse_function_spec(spec).realize(ctx)
    termwise = lf_integral(f, a, b)
    rl = (b - a) ** alpha * composed_moment(f, 0.0, b, a, MomentFunctional(ctx))
    with mp.workdps(30):
        al, ma, mb = mp.mpf(alpha), mp.mpf(a), mp.mpf(b)
        terms = [(mp.mpf(k), mp.mpf(c)) for k, c in f.terms]

        def fm(x):
            return sum(c * x ** (k * al) for k, c in terms)

        termwise_ref = sum(
            c * mp.gamma(1 + k * al) / mp.gamma(1 + (k + 1) * al) * (mb ** ((k + 1) * al) - ma ** ((k + 1) * al))
            for k, c in terms
        )
        # max(.., 0) keeps a rounding below zero at u = b**alpha off the real power's branch cut
        rl_ref = mp.quad(lambda u: fm(max(mb - u ** (1 / al), 0)), [0, (mb - ma) ** al]) / mp.gamma(1 + al)
    return termwise, rl, termwise_ref, rl_ref


def _rel(value, ref):
    with mp.workdps(30):
        return float(abs((mp.mpf(value) - ref) / ref))


@pytest.mark.parametrize("a, b", INTERVALS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", FUNCTIONS)
def test_each_integral_matches_its_reference(spec, alpha, a, b):
    termwise, rl, termwise_ref, rl_ref = _integrals(spec, alpha, a, b)
    assert _rel(termwise, termwise_ref) < 1e-14
    # off a = 0 the Riemann-Liouville value comes from the fitted quadrature rule
    assert _rel(rl, rl_ref) < (1e-14 if a == 0.0 else 1e-7)


@pytest.mark.parametrize(
    "alpha, a, b", [(alpha, a, b) for alpha in ALPHAS for a, b in INTERVALS if a == 0.0 or alpha == 1.0]
)
@pytest.mark.parametrize("spec", FUNCTIONS)
def test_the_integrals_agree_at_a_zero_and_at_alpha_one(spec, alpha, a, b):
    termwise, rl, termwise_ref, rl_ref = _integrals(spec, alpha, a, b)
    assert _rel(termwise_ref, rl_ref) < 1e-25
    assert _rel(rl, termwise_ref) < 1e-14


@pytest.mark.parametrize("alpha", sorted(GAP_ON_HALF_TO_TWO))
@pytest.mark.parametrize("spec", FUNCTIONS)
def test_the_term_wise_integral_is_smaller_on_half_to_two(spec, alpha):
    termwise, rl, termwise_ref, rl_ref = _integrals(spec, alpha, 0.5, 2.0)
    gap = GAP_ON_HALF_TO_TWO[alpha][spec]
    assert f"{100 * (1 - float(termwise_ref / rl_ref)):.2g}" == gap
    assert f"{100 * (rl - termwise) / rl:.2g}" == gap
