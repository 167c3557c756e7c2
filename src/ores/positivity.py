"""Positivity cone certificates and cofinal dominators.

The cone consists of finite sums sum_i lam_i a_i'a_i with lam_i positive
rationals.  A certificate is that list of pairs; verification expands the
sum exactly and compares normal forms.  The cofinal-dominator routine
bounds the square of a left fraction t^{-1}b by b'b, with per-factor
certificates (1 + p'p)^2 - 1 = 2 p'p + (p'p)'(p'p) showing each squared
inverse factor is dominated by 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, _check_same
from .localization import SProduct, factor_value
from .scalars import Scalar, as_scalar


def _positive_rational(lam) -> Scalar:
    lam = as_scalar(lam)
    if not lam.is_positive_real():
        raise ValueError("certificate weights must be positive rationals")
    return lam


class PositivityCertificate:
    """A list of (lam_i, a_i) witnessing membership of sum lam_i a_i'a_i."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        fixed = []
        pres = None
        for lam, a in terms:
            lam = _positive_rational(lam)
            if pres is None:
                pres = a.presentation
            else:
                _check_same(pres, a.presentation)
            fixed.append((lam, a))
        self.terms = tuple(fixed)

    def value(self) -> AlgebraElement:
        """The exact normal form of sum lam_i a_i'a_i."""
        if not self.terms:
            raise ValueError("empty certificate has no presentation")
        p = self.terms[0][1].presentation
        out = p.zero()
        for lam, a in self.terms:
            out = out + (a.dagger() * a).scale(lam)
        return out

    def __repr__(self):
        body = ", ".join("(%s, %s)" % (lam, a) for lam, a in self.terms)
        return "PositivityCertificate([%s])" % body


def verify_certificate(x: AlgebraElement, cert: PositivityCertificate) -> bool:
    """True iff the certificate expands exactly to x."""
    if not cert.terms:
        return x.is_zero()
    return cert.value() == x


def square_expansion_certificate(b: AlgebraElement) -> PositivityCertificate:
    """Certificate for (1 + b'b)^2 - 1 = 2 b'b + (b'b)'(b'b)."""
    return PositivityCertificate(((Scalar(2), b), (Scalar(1), b.dagger() * b)))


@dataclass(frozen=True)
class FactorCertificate:
    """One inductive step: the factor 1 + p'p and the certificate that
    (1 + p'p)^2 - 1 lies in the cone."""
    p: AlgebraElement
    target: AlgebraElement
    certificate: PositivityCertificate
    verified: bool


@dataclass(frozen=True)
class CofinalityResult:
    """Dominator d = b'b for the left fraction t^{-1}b, plus the chain of
    per-factor certificates for the factors of t."""
    dominator: AlgebraElement
    chain: tuple

    @property
    def all_verified(self) -> bool:
        return all(fc.verified for fc in self.chain)


def cofinal_dominator(b: AlgebraElement, t: SProduct) -> CofinalityResult:
    """Dominator and certificate chain for the left fraction t^{-1}b.

    The dominator is b'b; each factor 1 + p'p of t contributes the exact
    certificate that (1 + p'p)^2 - 1 is a positive combination of squares,
    which is the inductive step bounding (t^{-1})'t^{-1} by 1.
    """
    _check_same(b.presentation, t.presentation)
    dominator = b.dagger() * b
    chain = []
    for p in t.ps:
        factor = factor_value(p)
        target = factor * factor - t.presentation.one()
        cert = square_expansion_certificate(p)
        chain.append(FactorCertificate(p, target, cert,
                                       verify_certificate(target, cert)))
    return CofinalityResult(dominator, tuple(chain))

