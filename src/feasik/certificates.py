"""Trace certificates for the quantitative descent inequalities, plus exact
closed-form oracles and engine reproductions of the two counterexamples in
which dropping the correction counter breaks finite convergence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .controls import Cyclic, Repetitive
from .engine import RunConfig, RunResult, step, solve
from .errors import CertificateError, ConfigError
from .model import (AbsCoordMinusC, Constraint, Halfspace, OuterSet, Problem,
                    QuadCoordMinusC, Sublevel, Vector, as_real, as_vector, norm)
from .operators import INEQUALITY_RTOL, evaluate_cutter
from .schedules import (ConstantRelaxation, FromFunction, Harmonic,
                        MergedDecreasing, PhiOne, PhiSubgradNorm,
                        UniformOverActive)


# ---------------------------------------------------------------------------
# Descent certificate along a trace
# ---------------------------------------------------------------------------

DESCENT_RTOL = 1e-9  # relative: a step passes if slack >= -DESCENT_RTOL (1 + ||x_k - z||^2)


@dataclass(slots=True)
class DescentEntry:
    k: int
    lhs: float
    rhs: float
    slack: float
    rho: float
    applicable: bool
    ok: bool


@dataclass
class DescentCertificate:
    """Per-step verification of

        ||x_{k+1} - z||^2 <= ||x_k - z||^2 - 2 alpha lambda R rho(x_k)

    on correction steps with rho(x_k) = max_j r/phi_j(x_k) <= R, for an
    interior point z with B(z, 2R) inside every constraint set."""

    z: Vector
    big_r: float
    lam: float
    entries: list

    @property
    def applicable_count(self) -> int:
        return sum(e.applicable for e in self.entries)

    @property
    def violations(self) -> list:
        return [e.k for e in self.entries if e.applicable and not e.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def min_slack(self) -> Optional[float]:
        slacks = [e.slack for e in self.entries if e.applicable]
        return min(slacks) if slacks else None

    def to_dict(self) -> dict:
        return {
            "z": [float(v) for v in self.z],
            "R": self.big_r,
            "lambda": self.lam,
            "applicable": self.applicable_count,
            "violations": self.violations,
            "min_slack": self.min_slack,
            "slacks": [
                {"k": e.k, "slack": e.slack, "rho": e.rho,
                 "applicable": e.applicable} for e in self.entries],
        }


class DescentMonitor:
    """An observer that checks the descent inequality online into
    ``certificate``.  The caller asserts B(z, 2R) lies inside every
    constraint set; z in Q is checked here when ``outer`` is supplied."""

    def __init__(self, z, big_r: float, lam: float,
                 outer: Optional[OuterSet] = None):
        z = as_vector(z)
        try:  # R and lambda are kept as given: the certificate prints them
            if not (as_real(big_r, "R") > 0.0 and as_real(lam, "lambda") > 0.0):
                raise ConfigError("R and lambda must be positive and finite")
        except ConfigError as e:
            raise CertificateError(str(e)) from None
        if outer is not None and not outer.member(z):
            raise CertificateError("z is not in the outer set Q")
        self.certificate = DescentCertificate(z, big_r, lam, [])
        self._last = None  # the previous record and its ||x - z||^2

    def __call__(self, nxt) -> None:
        cert = self.certificate
        last = self._last
        if last is None and nxt.x.shape != cert.z.shape:  # only the first record
            raise CertificateError(f"z has dimension {len(cert.z)}, "
                                   f"the iterates {len(nxt.x)}")
        d1 = nxt.x - cert.z
        lhs = float(d1 @ d1)
        self._last = (nxt, lhs)
        if last is None:
            return
        rec, base = last
        # The moved entries are exactly those of the violated rows.
        rhos = [rho for (_res, disp, _b, rho) in rec.per_index if disp > 0.0]
        rho = max(rhos) if rhos else 0.0
        applicable = bool(rec.corrected and rho <= cert.big_r)
        rhs = base - 2.0 * rec.alpha_used * cert.lam * cert.big_r * rho \
            if rec.corrected else base
        slack = rhs - lhs
        ok = (not applicable) or slack >= -DESCENT_RTOL * (1.0 + base)
        cert.entries.append(DescentEntry(rec.k, lhs, rhs, slack, rho, applicable, ok))


def check_descent(trace, z, big_r: float, lam: float,
                  outer: Optional[OuterSet] = None) -> DescentCertificate:
    """Replay a recorded trace (or ``RunResult``) through a ``DescentMonitor``."""
    if isinstance(trace, RunResult):
        if trace.trace is None:
            raise CertificateError("the run kept no trace: its records went "
                                   "to observers, where a DescentMonitor checks them")
        trace = trace.trace
    monitor = DescentMonitor(z, big_r, lam, outer)
    for rec in trace:
        monitor(rec)
    return monitor.certificate


def check_single_operator(T, x, y, rho_val: float, alpha: float):
    """Overrelaxed single-operator inequality: with
    U(x) = x + alpha * ((rho + d)/d) * (T(x) - x), d = ||T(x) - x|| > 0,
    and B(y, rho) inside fix T,

        ||U(x) - y||^2 <= ||x - y||^2 - (2 - alpha)/alpha * ||U(x) - x||^2.

    Returns (lhs, rhs, ok)."""
    image = evaluate_cutter(T, x).image if isinstance(T, Constraint) else T(x)
    diff = image - x
    d = norm(diff)
    if d == 0.0:
        raise CertificateError("inequality hypothesis violated: x is a fixed point")
    if rho_val <= 0.0:
        raise CertificateError("rho must be positive")
    b = (rho_val + d) / d
    u = x + (alpha * b) * diff
    n_uy, n_xy = norm(u - y), norm(x - y)
    lhs = n_uy * n_uy
    du = u - x
    rhs = n_xy * n_xy - ((2.0 - alpha) / alpha) * float(du @ du)
    return lhs, rhs, lhs <= rhs + INEQUALITY_RTOL * (1.0 + abs(rhs))


def slater_delta(fs: Sequence, z, r: float) -> float:
    """Uniform subgradient-norm lower bound -max_i f_i(z) / r from a strict
    Slater point z; positive by construction."""
    z = as_vector(z)
    if r <= 0.0:
        raise CertificateError("radius must be positive")
    fz = max(f.value(z) for f in fs)
    if fz >= 0.0:
        raise CertificateError("Slater point invalid")
    return -fz / r


# ---------------------------------------------------------------------------
# Counterexample 1: alternating halfspace projections, alpha = 1/2,
# nonmonotone r_k used raw.  Closed form: x_k = 0 for k >= 1 and
# y_{2k} = 2^(-2k) > 0 forever.
# ---------------------------------------------------------------------------

def _a1_r(k: int) -> float:
    return 1.0 / (k + 1) if k % 2 == 0 else math.ldexp(1.0, -k)


def oracle_a1(k: int):
    """Closed-form iterate (x_k, y_k) of the alternating counterexample."""
    if k < 0:
        raise ConfigError("k must be nonnegative")
    x = 1.0 if k == 0 else 0.0
    y = math.ldexp(1.0, -2 * (k // 2))
    return x, y


def a1_problem() -> Problem:
    c1 = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    c2 = Constraint(1, Halfspace([0.0, 1.0], 0.0))
    return Problem(2, [c1, c2], interior=([-2.0, -2.0], 1.0))


def build_a1_config(counter_mode: str = "raw", max_iter: int = 10_000) -> RunConfig:
    """The alternating-projection setup; raw mode uses the nonmonotone
    schedule that defeats finite convergence, bracketed mode pairs the
    counter with a harmonic schedule."""
    if counter_mode == "raw":
        over = FromFunction(_a1_r, divergent_sum=True)
    else:
        over = Harmonic()
    return RunConfig(
        problem=a1_problem(), control=Cyclic([0, 1]),
        relaxation=ConstantRelaxation(0.5), overrelaxation=over,
        phi=PhiOne(), weights=UniformOverActive(), x0=[1.0, 1.0],
        counter_mode=counter_mode, max_iter=max_iter)


@dataclass
class ReproduceReport:
    """A reproduction passes when none of its checks left a note."""

    name: str
    status: str
    k_feasible: Optional[int]
    max_rel_err: float
    table: list  # printable (label, engine, oracle) rows
    notes: list

    @property
    def ok(self) -> bool:
        return not self.notes

    def lines(self) -> list:
        out = [f"{self.name}: {'PASS' if self.ok else 'FAIL'} "
               f"(status={self.status}, max_rel_err={self.max_rel_err:.3e})"]
        out += [f"  {a:<12} {b:<24} {c}" for a, b, c in self.table]
        out += [f"  note: {n}" for n in self.notes]
        return out


def _rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


class _RunFacts:
    """An observer that keeps what a 2-D reproduction checks: the record
    count, whether an iterate tested feasible, y left 0 after the first
    record or x fell to 1 or below, and the iterates where ``keep(pos)`` holds."""

    def __init__(self, keep):
        self.keep = keep
        self.count = 0
        self.any_feasible = self.y_moved = self.x_low = False
        self.kept = {}

    def __call__(self, rec) -> None:
        pos = self.count
        self.count += 1
        x, y = rec.x.tolist()
        self.any_feasible |= rec.feasible_flag
        self.y_moved |= pos > 0 and y != 0.0
        self.x_low |= x <= 1.0
        if self.keep(pos):
            self.kept[pos] = rec.x


def reproduce_a1(max_iter: int = 10_000, oracle_up_to: int = 100) -> ReproduceReport:
    """Run the raw-mode alternating config and check its iterates against
    the closed form: never feasible, x pinned to 0 after one step, and
    y_{2k} = 2^(-2k) to 1e-12 relative (exact zero once 2^(-2k) underflows)."""
    cfg = build_a1_config("raw", max_iter)
    facts = _RunFacts(lambda pos: pos % 2 == 0 and 0 < pos <= 2 * oracle_up_to)
    result = solve(cfg, observers=[facts])
    notes = []
    if result.status != "max_iter":
        notes.append(f"unexpectedly feasible at k={result.k_feasible}")
    max_err = 0.0
    table = [("k", "engine y_2k", "oracle y_2k")]
    for k in range(1, oracle_up_to + 1):
        pos = 2 * k
        if pos >= facts.count:
            notes.append(f"trace shorter than position {pos}")
            break
        x = facts.kept[pos]
        wx, wy = oracle_a1(pos)
        err = max(_rel_err(float(x[0]), wx), _rel_err(float(x[1]), wy))
        if wy == 0.0 and float(x[1]) != 0.0:
            err = math.inf  # underflow must agree exactly
        max_err = max(max_err, err)
        if k <= 10:
            table.append((str(k), repr(float(x[1])), repr(wy)))
    if facts.any_feasible:
        notes.append("an iterate tested feasible")
    if max_err > 1e-12:
        notes.append(f"max relative error {max_err:.3e} above 1e-12")
    return ReproduceReport("a1", result.status, result.k_feasible, max_err,
                           table, notes)


def _reproduce_bracketed(name: str, cfg: RunConfig) -> ReproduceReport:
    """A counterexample's geometry with the correction counter and a
    monotone schedule: finite convergence returns."""
    result = solve(cfg, observers=())
    table = [("status", result.status, ""),
             ("k_feasible", str(result.k_feasible), ""),
             ("corrections", str(result.corrections), "")]
    notes = ([] if result.status == "feasible"
             else ["expected finite convergence in bracketed mode"])
    return ReproduceReport(name, result.status, result.k_feasible, 0.0, table,
                           notes)


def reproduce_a1_bracketed(max_iter: int = 1000) -> ReproduceReport:
    return _reproduce_bracketed("a1-bracketed",
                                build_a1_config("bracketed", max_iter))


# ---------------------------------------------------------------------------
# Counterexample 2: subgradient projections with a repetitive control and a
# decreasing merged schedule used raw.  Closed form: x at the position of
# b_k equals 1 + sqrt(2 b_k) > 1 forever.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def a2_b(k: int) -> float:
    """The auxiliary sequence b_0 = 1/2,
    b_{k+1} = b_k / (2*sqrt(2)/sqrt(b_k) + 4)^2, evaluated in binary64
    exactly as written.  Doubly exponentially decaying; underflows to 0.0
    (where it stays) for k around 8."""
    if k == 0:
        return 0.5
    b = a2_b(k - 1)
    if b == 0.0:
        return 0.0
    t = 2.0 * math.sqrt(2.0) / math.sqrt(b) + 4.0
    return b / (t * t)


def oracle_a2(k: int):
    """(b_k, closed-form x at the position of b_k)."""
    if k < 0:
        raise ConfigError("k must be nonnegative")
    b = a2_b(k)
    return b, 1.0 + math.sqrt(2.0 * b)


def a2_problem() -> Problem:
    f1 = Sublevel(AbsCoordMinusC(axis=1, c=1.0))
    f2 = Sublevel(QuadCoordMinusC(axis=0, c=1.0))
    return Problem(2, [Constraint(0, f1), Constraint(1, f2)],
                   interior=([0.0, 0.0], 0.5))


def a2_schedule() -> MergedDecreasing:
    return MergedDecreasing(lambda k: 1.0 / (k + 1), a2_b, divergent_sum=True)


def build_a2_config(counter_mode: str = "raw",
                    max_iter: int = 100_000) -> RunConfig:
    """The repetitive-control subgradient setup, whose overrelaxation is the
    merged schedule: the control picks constraint 0 at merge positions fed
    by the harmonic part and constraint 1 at positions fed by the b-part."""
    sched = a2_schedule()
    control = Repetitive(
        lambda k: (0,) if sched.source(k)[0] == "a" else (1,), max_card=1)
    return RunConfig(
        problem=a2_problem(), control=control,
        relaxation=ConstantRelaxation(1.0), overrelaxation=sched,
        phi=PhiSubgradNorm(), weights=UniformOverActive(), x0=[2.0, 2.0],
        counter_mode=counter_mode, max_iter=max_iter)


def reproduce_a2(max_iter: int = 100_000, oracle_up_to: int = 30) -> ReproduceReport:
    """Run the raw-mode repetitive config and check the engine against the
    closed form.

    The full run covers the b-positions that fit inside ``max_iter`` (the
    position of b_k is floor(1/b_k) + k, which grows doubly exponentially,
    so only the first few are reachable step by step).  Beyond the horizon,
    every intermediate position processes constraint 0, which is satisfied
    once y = 0 and therefore leaves the iterate untouched; the check then
    takes the remaining b-positions from one forward run of the engine's
    step on constraint 1 alone and compares with the closed form at each.
    """
    cfg = build_a2_config("raw", max_iter)
    sched = cfg.overrelaxation
    facts = _RunFacts(lambda pos: pos < max_iter and sched.source(pos)[0] == "b")
    result = solve(cfg, observers=[facts])
    notes = []
    if result.status != "max_iter":
        notes.append(f"unexpectedly feasible at k={result.k_feasible}")
    if facts.any_feasible:
        notes.append("an iterate tested feasible")
    if facts.y_moved:
        notes.append("y did not pin to 0 after the first step")
    if facts.x_low:
        notes.append("x fell to 1 or below inside the run")

    max_err = 0.0
    table = [("k", "b_k", "engine x@n_k / oracle 1+sqrt(2 b_k)")]
    run = {sched.source(pos)[1]: x for pos, x in facts.kept.items()}
    if not run:
        notes.append(f"no b-position within max_iter={max_iter}: nothing to check")
        return ReproduceReport("a2", result.status, result.k_feasible, max_err,
                               table, notes)
    # Fast-forward: between b-positions only constraint 0 is active and it is
    # satisfied (f1(x, 0) = -1 < 0), so those steps are identities.  Past the
    # run, x at b_k is the image of step k - 1, r = b_{k-1}, of the forward run.
    x = run[max(run)]
    if not cfg.problem.constraint(0).violation(x) < 0.0:
        notes.append("fast-forward precondition failed: constraint 0 not interior")
    forward = RunConfig(
        problem=cfg.problem, control=Cyclic([1]), relaxation=ConstantRelaxation(1.0),
        overrelaxation=FromFunction(a2_b, divergent_sum=True), phi=PhiSubgradNorm(),
        weights=UniformOverActive(), x0=x, counter_mode="raw")
    for k in range(oracle_up_to + 1):
        tag = "run" if k in run else "ff"
        x = run[k] if k in run else step(forward, x, k - 1, k - 1)[0]
        got = float(x[0])
        b, want = oracle_a2(k)
        max_err = max(max_err, _rel_err(got, want))
        if k <= 10:
            table.append((f"{k} ({tag})", repr(b), f"{got!r} / {want!r}"))

    if a2_b(1) != 1.0 / 128.0:
        notes.append("b_1 is not exactly 1/128")
    if max_err > 1e-12:
        notes.append(f"max relative error {max_err:.3e} above 1e-12")
    return ReproduceReport("a2", result.status, result.k_feasible, max_err,
                           table, notes)


def reproduce_a2_bracketed(max_iter: int = 10_000) -> ReproduceReport:
    return _reproduce_bracketed("a2-bracketed", build_a2_config("bracketed", max_iter))


REPRODUCTIONS = {
    "a1": reproduce_a1,
    "a2": reproduce_a2,
    "a1-bracketed": reproduce_a1_bracketed,
    "a2-bracketed": reproduce_a2_bracketed,
}
