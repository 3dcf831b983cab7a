"""Brute-force oracles computed from first principles.

Everything here is derived by enumerating the finite outcome trees of
one pulse with plain trigonometry, independently of the package under
test. States confined to the x-z plane of the Bloch sphere are written
as half-angles tau, where the state vector is (cos tau, sin tau):

    z+ -> 0      x+ -> pi/4      z- -> pi/2      x- -> 3 pi/4

The Born probability of a projective outcome onto the state at
half-angle mu, given the state at tau, is cos^2(tau - mu).

The binomial tails behind the two detectors are summed term by term from
the pmf, in exact fractions for small n and in 50-digit decimals for a
small count at any n.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

TAU_Z_PLUS = 0.0
TAU_X_PLUS = math.pi / 4
TAU_Z_MINUS = math.pi / 2
TAU_X_MINUS = 3 * math.pi / 4

HALF = 0.5


def born(tau_state: float, tau_outcome: float) -> float:
    return math.cos(tau_state - tau_outcome) ** 2


def _bob_branches(tau_forwarded: float):
    """(probability, decoded bit or None) over Bob's basis and outcome tree."""
    branches = []
    for tau_minus, decoded in ((TAU_Z_MINUS, 1), (TAU_X_MINUS, 0)):
        p_minus = born(tau_forwarded, tau_minus)
        branches.append((HALF * p_minus, decoded))
        branches.append((HALF * (1.0 - p_minus), None))
    return branches


def b92_honest() -> dict:
    """Sift rate and error rate of a lossless, attack-free B92 session."""
    sift = err = 0.0
    for bit, tau in ((0, TAU_Z_PLUS), (1, TAU_X_PLUS)):
        for weight, decoded in _bob_branches(tau):
            if decoded is None:
                continue
            sift += HALF * weight
            if decoded != bit:
                err += HALF * weight
    return {"sift_rate": sift, "qber": err / sift}


def bb84_honest() -> dict:
    """Sift rate and error rate of a lossless, attack-free BB84 session."""
    sift = err = 0.0
    taus = {("z", 0): TAU_Z_PLUS, ("z", 1): TAU_Z_MINUS,
            ("x", 0): TAU_X_PLUS, ("x", 1): TAU_X_MINUS}
    for (basis, bit), tau in taus.items():
        p_state = 0.25
        for bob_basis, tau_minus in (("z", TAU_Z_MINUS), ("x", TAU_X_MINUS)):
            if bob_basis != basis:
                continue
            p_minus = born(tau, tau_minus)
            sift += p_state * HALF
            wrong = p_minus if bit == 0 else 1.0 - p_minus
            err += p_state * HALF * wrong
    return {"sift_rate": sift, "qber": err / sift}


def intercept_resend_b92() -> dict:
    """Eve measures z or x at random and resends the eigenstate she saw."""
    eigen = {("z", 0): TAU_Z_PLUS, ("z", 1): TAU_Z_MINUS,
             ("x", 0): TAU_X_PLUS, ("x", 1): TAU_X_MINUS}
    sift = err = 0.0
    for bit, tau in ((0, TAU_Z_PLUS), (1, TAU_X_PLUS)):
        for eve_basis in ("z", "x"):
            tau_minus = TAU_Z_MINUS if eve_basis == "z" else TAU_X_MINUS
            p_minus = born(tau, tau_minus)
            for eve_outcome, p_out in ((0, 1.0 - p_minus), (1, p_minus)):
                tau_resent = eigen[(eve_basis, eve_outcome)]
                for weight, decoded in _bob_branches(tau_resent):
                    if decoded is None:
                        continue
                    w = HALF * HALF * p_out * weight
                    sift += w
                    if decoded != bit:
                        err += w
    return {"sift_rate": sift, "qber": err / sift}


def intercept_resend_bb84() -> dict:
    """Same attack against the four-state protocol."""
    taus = {("z", 0): TAU_Z_PLUS, ("z", 1): TAU_Z_MINUS,
            ("x", 0): TAU_X_PLUS, ("x", 1): TAU_X_MINUS}
    sift = err = 0.0
    for (basis, bit), tau in taus.items():
        p_state = 0.25
        for eve_basis in ("z", "x"):
            tau_minus = TAU_Z_MINUS if eve_basis == "z" else TAU_X_MINUS
            p_minus = born(tau, tau_minus)
            for eve_outcome, p_out in ((0, 1.0 - p_minus), (1, p_minus)):
                tau_resent = taus[(eve_basis, eve_outcome)]
                # Bob sifts on matching bases only; minus decodes as 1
                p_bob_minus = born(tau_resent, TAU_Z_MINUS if basis == "z" else TAU_X_MINUS)
                w = p_state * HALF * p_out * HALF
                sift += w
                wrong = p_bob_minus if bit == 0 else 1.0 - p_bob_minus
                err += w * wrong
    return {"sift_rate": sift, "qber": err / sift}


def _usd_conclusive_branches(tau_alice: float, delta: float, scheme: str):
    """(probability, forwarded tau) for each conclusive branch of Eve's USD.

    Eve's conjectured pair sits at half-angles d and pi/4 + d with
    d = delta / 2. The naive scheme measures one of two rotated
    projective bases at random; a frame minus outcome identifies the
    other state. The optimal scheme fires conclusive j with probability
    sin^2(tau - tau_other) / (1 + s), s being the pair overlap.
    """
    d = delta / 2.0
    tau0, tau1 = d, math.pi / 4 + d
    if scheme == "naive":
        return [
            (HALF * born(tau_alice, d + math.pi / 2), tau1),
            (HALF * born(tau_alice, d + 3 * math.pi / 4), tau0),
        ]
    overlap = math.cos(tau1 - tau0)
    scale = 1.0 / (1.0 + overlap)
    return [
        (scale * math.sin(tau_alice - tau1) ** 2, tau0),
        (scale * math.sin(tau_alice - tau0) ** 2, tau1),
    ]


def usd_suppress_b92(delta: float = 0.0, scheme: str = "naive") -> dict:
    """Suppression attack statistics on lossless B92.

    delta = 0 is the matched attack (zero error rate); delta > 0 is the
    trial-and-error attacker forwarding her conjectured states.
    """
    conclusive = sift = err = 0.0
    for bit, tau in ((0, TAU_Z_PLUS), (1, TAU_X_PLUS)):
        for p_conc, tau_fwd in _usd_conclusive_branches(tau, delta, scheme):
            conclusive += HALF * p_conc
            for weight, decoded in _bob_branches(tau_fwd):
                if decoded is None:
                    continue
                w = HALF * p_conc * weight
                sift += w
                if decoded != bit:
                    err += w
    return {
        "arrival_rate": conclusive,
        "sift_rate": sift,
        "qber": 0.0 if sift == 0.0 else err / sift,
    }


def channel_loss_probability(absorption: float, efficiency: float) -> float:
    """Two independent Bernoulli loss stages collapsed to one probability."""
    return absorption + (1.0 - absorption) * (1.0 - efficiency)


def binomial_tails_exact(n: int, p: float) -> list:
    """P[X >= k] for X ~ Binomial(n, p) and k = 0..n + 1, in exact fractions
    of the float p: the pmf C(n, j) p^j (1 - p)^(n - j) summed from j = n
    down. Meant for n up to a few hundred."""
    p = Fraction(p)
    tails = [Fraction(0)]
    for j in range(n, -1, -1):
        tails.append(tails[-1] + math.comb(n, j) * p**j * (1 - p) ** (n - j))
    return tails[::-1]


def binomial_tail_decimal(k: int, n: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p), 0 < p < 1, in 50-digit decimal
    arithmetic from the float p, for a small count k at any n. At or
    below the mean it is 1 minus the first k pmf terms, summed up from
    (1 - p)^n; above it, the pmf summed from C(n, k) p^k (1 - p)^(n - k)
    upward, whose ratios fall below 1 there, until the geometric bound on
    the rest is below the 50th digit."""
    with localcontext() as context:
        context.prec = 50
        p = Decimal(p)
        q = 1 - p
        if k <= n * p:
            head, term = Decimal(0), q**n
            for j in range(k):
                head += term
                term *= (n - j) * p / ((j + 1) * q)
            return float(1 - head)
        term = p**k * q ** (n - k)
        for i in range(k):
            term *= Decimal(n - i) / (i + 1)
        total, j = Decimal(0), k
        while True:
            total += term
            ratio = (n - j) * p / ((j + 1) * q)
            if term * ratio <= (1 - ratio) * total * Decimal(10) ** -50:
                return float(total)
            term *= ratio
            j += 1
