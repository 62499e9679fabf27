"""Output checks, one per workload, written independently of zdkit.

Every check takes the program's outputs (parsed JSON and exit code) plus the
expected values the fixture generator knows, and raises CheckFailed with a
reason when the outputs are wrong.  Nothing here imports zdkit: the chain is
rebuilt from the rule matrices with np.kron, and Markov verdicts come from a
Boolean repeated-squaring reachability oracle on the positivity pattern.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

PIN_TOL = 1e-8  # the CLI's default --tol; designed pins must hold this well
RESIDUAL_TOL = 1e-10
MASS_TOL = 1e-9
ROW_TOL = 1e-12


class CheckFailed(Exception):
    """An op's outputs are wrong."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _exit(code, expected):
    _require(code == expected, f"exit code {code}, expected {expected}")


# ---------------------------------------------------------------------------
# oracles


def transition_matrix(rules) -> np.ndarray:
    """Column s of L is the Kronecker product of the players' columns s."""
    kappa = rules[0].shape[1]
    return np.column_stack(
        [reduce(np.kron, [r[:, s] for r in rules]) for s in range(kappa)])


def _bool_mul(a, b):
    return (a.astype(np.float64) @ b.astype(np.float64)) > 0


def _bool_power(a, e):
    """a^e for e >= 1 by binary powering of the Boolean pattern."""
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else _bool_mul(out, base)
        e >>= 1
        if e:
            base = _bool_mul(base, base)
    return out


def chain_structure(L) -> dict:
    """Exact pattern facts of a column-stochastic L.

    Returns the closed communicating classes, whether L is primitive, and
    whether the power limit exists (every closed class aperiodic).  A state
    is essential when every state it reaches reaches it back; the essential
    states split into the closed classes.
    """
    kappa = L.shape[0]
    step = (L > 0).T  # step[s, t]: one move goes from profile s to t
    reach = step | np.eye(kappa, dtype=bool)
    while True:
        nxt = _bool_mul(reach, reach)
        if (nxt == reach).all():
            break
        reach = nxt
    mutual = reach & reach.T
    essential = [s for s in range(kappa) if (mutual[s] == reach[s]).all()]
    classes = sorted({tuple(np.flatnonzero(mutual[s])) for s in essential})
    big = 1
    while big < (kappa - 1) ** 2 + 1:  # Wielandt bound
        big *= 2
    far = _bool_power(step, big)
    # a closed class is aperiodic iff a power past the bound is positive on it
    limit = all(far[np.ix_(c, c)].all() for c in map(list, classes))
    return {"classes": classes, "primitive": bool(far.all()), "limit": limit,
            "step": step}


def min_positive_exponent(step, s) -> bool:
    """Whether s is the least exponent with step^s entrywise positive."""
    if not _bool_power(step, s).all():
        return False
    return s == 1 or not _bool_power(step, s - 1).all()


def asymptotic_sd(L, pi, F) -> np.ndarray:
    """Asymptotic standard deviation of the time average of each column of F.

    For a column f, sigma^2 = 2 <g, Z g>_pi - <g, g>_pi with g = f - pi.f
    and the fundamental matrix Z = (I - P + 1 pi^T)^-1 of the
    row-stochastic P = L^T.
    """
    kappa = L.shape[0]
    G = F - pi @ F
    Z = np.linalg.inv(np.eye(kappa) - L.T + np.outer(np.ones(kappa), pi))
    var = (2.0 * np.einsum("s,sm,sm->m", pi, G, Z @ G)
           - np.einsum("s,sm,sm->m", pi, G, G))
    return np.sqrt(np.maximum(var, 0.0))


def stationary(L) -> np.ndarray:
    """Stationary vector of an irreducible L from the bordered linear system."""
    kappa = L.shape[0]
    A = np.vstack([L - np.eye(kappa), np.ones((1, kappa))])
    b = np.zeros(kappa + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def check_rational_rows(rows, what):
    """Rule rows lie in [0, 1] and every column sums to 1."""
    rows = np.asarray(rows, dtype=float)
    _require(rows.min() >= -ROW_TOL and rows.max() <= 1 + ROW_TOL,
             f"{what}: rule entries outside [0, 1]")
    _require(np.abs(rows.sum(axis=0) - 1.0).max() <= MASS_TOL,
             f"{what}: rule columns do not sum to 1")


# ---------------------------------------------------------------------------
# per-workload checks


def check_verify(doc, code, trials, pins):
    """verify-dense: every trial effective, both pins hold within PIN_TOL.

    pins maps a 1-based player to the payoff value it is pinned to.
    """
    _exit(code, 0)
    _require(doc["trials"] == trials and len(doc["reports"]) == trials,
             f"expected {trials} trials, report has {doc['trials']}")
    _require(doc["all_effective"] is True, "all_effective is not true")
    for t, rep in enumerate(doc["reports"]):
        _require(rep["effective"] is True, f"trial {t} is not effective")
        pay = rep["expected_payoffs"]
        _require(pay is not None, f"trial {t} reports no payoffs")
        for player, value in pins.items():
            gap = abs(pay[player - 1] - value)
            _require(gap <= PIN_TOL,
                     f"trial {t}: player {player} payoff off its pin by {gap:.3g}")


def check_analyze(doc, code, L, facts):
    """analyze-sparse: verdicts match the oracle; stationary vector is valid.

    facts is chain_structure(L).
    """
    _exit(code, 0)
    n_closed = len(facts["classes"])
    _require(doc["primitive"] == facts["primitive"],
             f"primitive={doc['primitive']}, oracle says {facts['primitive']}")
    _require(doc["rank_defect"] == n_closed,
             f"rank_defect={doc['rank_defect']}, oracle counts {n_closed} "
             f"closed classes")
    _require(doc["limit_converged"] == facts["limit"],
             f"limit_converged={doc['limit_converged']}, oracle says "
             f"{facts['limit']}")
    if facts["primitive"]:
        w = doc["witness_s"]
        _require(isinstance(w, int) and w >= 1
                 and min_positive_exponent(facts["step"], w),
                 f"witness_s={w} is not the least positive power")
        _require(doc["stationary"] is not None, "primitive chain without "
                 "a stationary vector")
    else:
        _require(doc["witness_s"] is None and doc["stationary"] is None,
                 "non-primitive chain reports a witness or stationary vector")
    if doc["stationary"] is not None:
        u = np.asarray(doc["stationary"], dtype=float)
        _require(u.shape == (L.shape[0],), "stationary vector has wrong length")
        _require(u.min() >= 0.0, "stationary vector has a negative entry")
        _require(abs(u.sum() - 1.0) <= MASS_TOL, "stationary vector mass != 1")
        res = float(np.abs(L @ u - u).max())
        _require(res <= RESIDUAL_TOL, f"stationary residual {res:.3g}")


def check_simulate(doc, code, steps, payoffs, target, value, pi, bounds):
    """simulate-mc: empirical pinned payoff and profile frequencies in bounds.

    bounds[0] bounds the pinned player's payoff gap from its pin, and
    bounds[1:] each profile's frequency gap from the exact stationary pi.
    The CLI's own z-verdict sets the expected exit code (0 pass, 1 not);
    it is not a failure here.
    """
    _require(isinstance(doc.get("pass"), bool), "report has no z-verdict")
    _exit(code, 0 if doc["pass"] else 1)
    _require(doc["T"] == steps, f"T={doc['T']}, expected {steps}")
    emp = np.asarray(doc["empirical"], dtype=float)
    _require(emp.shape == pi.shape and emp.min() >= 0.0
             and abs(emp.sum() - 1.0) <= MASS_TOL,
             "empirical distribution is not a distribution")
    got = float(payoffs[target - 1] @ emp)
    _require(abs(got - value) <= bounds[0],
             f"empirical payoff of player {target} is {got:.6g}, pinned to "
             f"{value:.6g} (bound {bounds[0]:.3g})")
    excess = np.abs(emp - pi) / bounds[1:]
    s = int(np.argmax(excess))
    _require(excess[s] <= 1.0,
             f"profile {s + 1} frequency {emp[s]:.4g} is off the stationary "
             f"{pi[s]:.4g} by more than {bounds[1 + s]:.3g}")


def check_neg(reduced, assignment, report, code, node, degree, base, pin):
    """neg-sweep: reduced kappa = 2(d+1), FOP payoffs, rational design."""
    _exit(code, 0)
    d = degree
    _require(reduced["strategy_counts"] == [2, d + 1],
             f"reduced strategy counts {reduced['strategy_counts']}, "
             f"expected [2, {d + 1}]")
    _require(reduced["focal_node"] == node, "wrong focal node")
    counts = np.array([[d - c, c] for c in range(d + 1)], dtype=float)
    _require(np.array_equal(np.asarray(reduced["aggregate_profiles"]), counts),
             "aggregate profiles are not the count vectors (d,0)..(0,d)")
    focal = np.concatenate([counts @ base[a, :] for a in range(2)])
    fop = np.concatenate([counts @ base[:, a] for a in range(2)])
    pay = np.asarray(reduced["payoffs"], dtype=float)
    _require(pay.shape == (2, 2 * (d + 1)), "reduced payoffs have wrong shape")
    _require(np.array_equal(pay[0], focal) and np.array_equal(pay[1], fop),
             "reduced payoffs differ from counts . base payoff")
    rows = np.asarray(assignment["rows"], dtype=float)
    check_rational_rows(rows, "neg design")
    (rel,) = assignment["relations"]
    _require(rel["coeffs"] == [0.0, 1.0] and rel["constant"] == -pin,
             "design does not pin the aggregate opponent")
    xi = np.repeat([1.0, 0.0], d + 1)
    want = rel["mu"] * (fop - pin) + xi
    _require(np.abs(rows[0] - want).max() <= 1e-12,
             "designed row differs from mu * (V_2 - pin) + xi")
    _require(report["rational"] is True and report["trials"] == 0,
             "report is not a rational, trial-free design")
