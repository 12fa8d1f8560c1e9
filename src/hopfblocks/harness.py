"""Theorem-verification suite producing a structured pass/fail report per
algebra.

Every check computes both sides of the statement it verifies independently
and records them; gated checks (hypotheses not satisfied) and skipped checks
(resource caps) are reported explicitly, never silently passed.

Each ``verify_*`` supplies its statement and a body that computes
(lhs, rhs, ok, detail); one runner, ``_run``, builds every row: the gated
row when the gate names a missing hypothesis, the timing, the pass/fail
status, and the skipped row for ``GenusCapExceeded`` or ``OrderUnknown``,
which are caught nowhere else.  A body raises ``OrderUnknown`` when it reads
an Unknown order verdict (no order found up to the search cap): such a
verdict can neither confirm nor refute a statement.  A ``verify_*`` never
raises for a gated hypothesis, so ``run_all`` only collects rows.
"""

from __future__ import annotations

import time
from functools import reduce

from .blocks import (
    DIRECT,
    GenusCapExceeded,
    RELATIVE_CENTER,
    block_space,
    center_twist_op,
    nonseparating_twist_op,
    separating_twist_op,
)
from .hopf import HopfData
from .linalg import Matrix, OrderVerdict, inverse, operator_order
from .repcat import (
    johnson_criterion,
    power_image,
    power_twist_order,
    regular_module,
    torelli_criterion,
    twist,
)


class OrderUnknown(Exception):
    """A check read an Unknown order verdict; its row is skipped."""


class Check:
    __slots__ = ("name", "statement", "lhs", "rhs", "status", "detail", "runtime", "reason")

    def __init__(self, name: str, statement: str, lhs: str = "", rhs: str = "", status: str = "pass",
                 detail: str = "", runtime: float = 0.0, reason: str = ""):
        self.name = name
        self.statement = statement
        self.lhs = lhs
        self.rhs = rhs
        self.status = status  # pass | fail | skipped | gated
        self.detail = detail
        self.runtime = runtime
        self.reason = reason  # code of a gated or skipped check, shown in the table; not in the JSON report

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self):
        return {
            "name": self.name,
            "statement": self.statement,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "detail": self.detail,
            "runtime_s": round(self.runtime, 3),
        }


class TheoremReport:
    __slots__ = ("algebra", "checks")

    def __init__(self, algebra: str, checks: list[Check] | None = None):
        self.algebra = algebra
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.status in ("pass", "skipped", "gated") for c in self.checks)

    @property
    def has_failures(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self):
        return {
            "report_version": 1,
            "algebra": self.algebra,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def to_table(self) -> str:
        rows = [("check", "status", "reason", "computed", "expected", "time")]
        for c in self.checks:
            rows.append((c.name, c.status.upper(), c.reason, c.lhs, c.rhs, f"{c.runtime:.2f}s"))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = []
        for i, r in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(r)))
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(r) - 1)))
        return "\n".join(lines)


def ribbon_factorizable_gap(h: HopfData) -> str | None:
    """Gate: the twist-order theorems assume a ribbon factorizable algebra
    over a characteristic-zero field.  The code of the first missing
    hypothesis, or None when all hold."""
    if h.field.kind == "Fp":
        return "CharacteristicZeroRequired"
    if h.r_matrix is None or not h.is_factorizable()[0]:
        return "FactorizableRequired"
    if h.ribbon is None:
        return "RibbonRequired"
    return None


def _r_matrix_gap(h: HopfData) -> str | None:
    """Gate: the Torelli criterion needs an R-matrix."""
    return "RMatrixRequired" if h.r_matrix is None else None


def _run(h: HopfData, name: str, statement: str, body, gate=ribbon_factorizable_gap) -> Check:
    """One check row.  gate(h) returns the code of a missing hypothesis (no
    gate when None); then the row is gated, with detail "<code>: <algebra>",
    and body is not called.  Otherwise body() returns (lhs, rhs, ok, detail),
    and a ``GenusCapExceeded`` or ``OrderUnknown`` from body is a skipped row
    with that reason.  The runtime covers the gate and the body."""
    t0 = time.perf_counter()
    code = None if gate is None else gate(h)
    if code is not None:
        check = Check(name, statement, status="gated", detail=f"{code}: {h.name}", reason=code)
    else:
        try:
            lhs, rhs, ok, detail = body()
            check = Check(name, statement, lhs, rhs, "pass" if ok else "fail", detail)
        except (GenusCapExceeded, OrderUnknown) as exc:
            check = Check(name, statement, status="skipped", detail=str(exc), reason=type(exc).__name__)
    check.runtime = time.perf_counter() - t0
    return check


def _known(v: OrderVerdict) -> OrderVerdict:
    """v, unless it is Unknown; then ``OrderUnknown``."""
    if v.kind == "unknown":
        raise OrderUnknown(f"order verdict {v}: no order found up to the cap")
    return v


def _verdict_eq(a: OrderVerdict, b: OrderVerdict) -> bool:
    if _known(a).kind != _known(b).kind:
        return False
    if a.is_finite:
        return a.n == b.n
    return True  # infinite verdicts compare by kind; reasons may differ


def _verdict_min(a: OrderVerdict, b: OrderVerdict) -> OrderVerdict:
    if _known(a).is_finite and _known(b).is_finite:
        return a if a.n <= b.n else b
    if a.is_finite:
        return a
    return b


def verify_prop_order(h: HopfData) -> Check:
    """Order of the ribbon element equals the order of the twist on a
    projective generator, and bounds the twist order of every module.

    The ribbon element's order is read off its powers in H
    (``HopfData.ribbon_order``), the regular twist's off its matrix.  The
    sampled twists on A^(x0), A and A x A are read at probe entries
    (``repcat.power_twist_order``); no matrix is built on them.
    """

    def body():
        ribbon_cert = h.ribbon_order()
        reg_cert = operator_order(twist(regular_module(h)))
        sample = {"trivial": power_twist_order(h, 0), "regular": reg_cert, "adjoint": power_twist_order(h, 1),
                  "(adjoint@adjoint)": power_twist_order(h, 2)}
        sample_orders = [_known(c.gl_order) for c in sample.values()]
        ok = _verdict_eq(ribbon_cert.gl_order, reg_cert.gl_order)
        detail = ""
        if ribbon_cert.gl_order.is_finite:
            n = ribbon_cert.gl_order.n
            for name, v in zip(sample, sample_orders):  # v^n = 1 bounds every twist
                if not v.is_finite or n % v.n != 0:
                    ok = False
                    detail = f"|twist({name})| = {v.n if v.is_finite else v} does not divide {n}"
        return (f"twist(regular): {reg_cert.gl_order}", f"ribbon element: {ribbon_cert.gl_order}", ok,
                detail or f"sampled module orders: {[str(v) for v in sample_orders]}")

    return _run(h, "ribbon-element-order",
                "order of the generalized ribbon element = order of the twist on the regular module, "
                "and the twist order of each sampled module divides it", body)


def verify_nonseparating(h: HopfData, g_max: int, genus_cap: int | None = None) -> list[Check]:
    """Every meridian twist acts with PGL order equal to the ribbon twist order.

    The gate is checked once: when it fails, the one gated row carries the
    name of the whole range; otherwise there is one row per genus."""
    statement = "PGL order of the twist about each handle meridian equals the ribbon twist order"
    if ribbon_factorizable_gap(h) is not None:
        return [_run(h, f"nonseparating-twist-order(g=1..{g_max})", statement, None)]
    ribbon = h.ribbon_order().gl_order

    def body(g):
        block = block_space(h, g, DIRECT, genus_cap=genus_cap)
        pgl = [nonseparating_twist_op(block, handle).certificate.pgl_order for handle in range(1, g + 1)]
        return (f"handles: {[str(v) for v in pgl]} (block dim {block.dim})", f"|ribbon| = {ribbon}",
                all(_verdict_eq(v, ribbon) for v in pgl), "")

    return [_run(h, f"nonseparating-twist-order(g={g})", statement, lambda g=g: body(g), gate=None)
            for g in range(1, g_max + 1)]


def verify_separating(h: HopfData, g_left: int, g_right: int, genus_cap: int | None = None) -> Check:
    """Separating twist order = min of the twist orders of the end powers."""

    def body():
        sep = separating_twist_op(h, g_left, g_right, genus_cap=genus_cap)
        left, right = (c.gl_order for c in sep.end_orders)
        expected = _verdict_min(left, right)
        return (f"operator: {sep.certificate.pgl_order} (block dim {sep.block.dim})",
                f"min({left}, {right}) = {expected}", _verdict_eq(sep.certificate.pgl_order, expected), "")

    return _run(h, f"separating-twist-order({g_left},{g_right})",
                "PGL order of the separating twist = min of the twist orders of the end powers", body)


def verify_johnson(h: HopfData, genus_cap: int | None = None) -> Check:
    """Separating twists act trivially iff the end twist is trivial and the
    end's self double braiding is trivial; cross-checked on the genus-2
    separating operator."""

    def body():
        sep = separating_twist_op(h, 1, 1, genus_cap=genus_cap)
        twist_trivial, braid_trivial = johnson_criterion(h)
        predicted = twist_trivial and braid_trivial
        sep_trivial = sep.matrix.is_identity()
        return (f"genus-2 separating operator trivial: {sep_trivial}",
                f"predicted (twist trivial: {twist_trivial}, double braiding trivial: {braid_trivial}): {predicted}",
                sep_trivial == predicted, "")

    return _run(h, "johnson-kernel-criterion",
                "separating twists act trivially iff end twist and end self-monodromy are trivial", body)


def verify_torelli(h: HopfData) -> Check:
    """The end is transparent (trivial monodromy with a generator) iff the
    algebra is commutative; when commutative, the end is a sum of trivial
    modules."""

    def body():
        central = torelli_criterion(h)
        commutative, witness = h.is_commutative()
        ok = central == commutative
        detail = ""
        if commutative and ok:  # rho_A(e_i) = eps(e_i) I, read as pi(e_i) = eps(e_i) pi(1)
            F = h.field
            one = power_image(h, h.unit, 1)
            ok = all(h.sparse_eq(power_image(h, {i: F.one}, 1), {s: F.mul(h.counit[i], c) for s, c in one.items()})
                     for i in range(h.dim))
            detail = f"adjoint action scalar (counit) on all basis elements: {ok}"
        elif not commutative:
            detail = f"noncommutativity witness: {witness}"
        return f"end transparent: {central}", f"commutative: {commutative}", ok, detail

    return _run(h, "torelli-criterion", "the end is in the Mueger center iff the algebra is commutative",
                body, gate=_r_matrix_gap)


def verify_zg(h: HopfData, genus: int, window: int, genus_cap: int | None = None) -> Check:
    """The lattice of commuting meridian twists acts with kernel exactly the
    multiples of the ribbon twist order (all-or-nothing per coordinate).

    Raises ValueError for genus < 1 or window < 0, as ``run_all`` does: a
    genus-0 lattice has no twist, and a negative window no point.
    """
    if genus < 1 or window < 0:
        raise ValueError(f"genus must be at least 1 and window at least 0, got {genus} and {window}")

    def body():
        ribbon = _known(h.ribbon_order().gl_order)
        block = block_space(h, genus, DIRECT, genus_cap=genus_cap)
        powers = []
        for i in range(1, genus + 1):
            op = nonseparating_twist_op(block, i).matrix
            table = {0: Matrix.identity(h.field, block.dim)}
            inv = inverse(op)
            for k in range(1, window + 1):
                table[k] = table[k - 1].mul(op)
                table[-k] = table.get(-(k - 1), table[0]).mul(inv)
            powers.append(table)
        points = _lattice_points(genus, window)
        trivial_points = [pt for pt in points if _lattice_point_trivial(powers, pt)]
        if ribbon.is_finite:
            n = ribbon.n
            expected = [pt for pt in points if all(c % n == 0 for c in pt)]
            rhs = f"multiples of {n} in window: {len(expected)} points"
        else:
            expected = [tuple([0] * genus)]
            rhs = "only the origin (infinite ribbon order)"
        ok = trivial_points == expected
        return (f"trivially-acting points: {len(trivial_points)}", rhs, ok,
                "" if ok else f"found {trivial_points[:8]}")

    return _run(h, f"commuting-twist-lattice(g={genus}, window={window})",
                "lattice points acting trivially are exactly the multiples of the ribbon order", body)


def _lattice_points(genus: int, window: int) -> list[tuple]:
    pts = [()]
    for _ in range(genus):
        pts = [p + (c,) for p in pts for c in range(-window, window + 1)]
    return pts


def _lattice_point_trivial(powers: list[dict], pt: tuple) -> bool:
    """T_1^c_1 ... T_g^c_g = I, tested as T_1^c_1 ... T_(g-1)^c_(g-1) = T_g^(-c_g):
    no product at genus 1 or 2 (genus 1 compares the identity)."""
    factors = [table[c] for table, c in zip(powers[:-1], pt[:-1])] or [powers[0][0]]
    return reduce(Matrix.mul, factors) == powers[-1][-pt[-1]]


def verify_excision(h: HopfData, genus: int, genus_cap: int | None = None) -> Check:
    """Direct and relative-center models agree in dimension and twist order."""

    def body():
        direct = block_space(h, genus, DIRECT, genus_cap=genus_cap)
        center = block_space(h, genus, RELATIVE_CENTER, genus_cap=genus_cap)
        op_d = nonseparating_twist_op(direct, 1).certificate
        op_c = center_twist_op(center).certificate
        ok = (direct.dim == center.dim and _verdict_eq(op_d.gl_order, op_c.gl_order)
              and _verdict_eq(op_d.pgl_order, op_c.pgl_order))
        return f"direct: dim {direct.dim}, {op_d}", f"center: dim {center.dim}, {op_c}", ok, ""

    return _run(h, f"excision-consistency(g={genus})",
                "direct and relative-center block models agree (dimension and twist certificate)", body)


def run_all(h: HopfData, max_genus: int = 2, window: int = 4, genus_cap: int | None = None) -> TheoremReport:
    """The full theorem suite; checks whose hypotheses fail are gated rows.

    Raises ValueError for max_genus < 1 or window < 0 before any check runs.
    """
    if max_genus < 1 or window < 0:
        raise ValueError(f"max_genus must be at least 1 and window at least 0, got {max_genus} and {window}")
    checks = [verify_prop_order(h), *verify_nonseparating(h, max_genus, genus_cap=genus_cap),
              verify_separating(h, 1, 1, genus_cap=genus_cap)]
    if h.dim <= 8 and (genus_cap is None or genus_cap >= 3):
        checks.append(verify_separating(h, 1, 2, genus_cap=genus_cap))
    checks += [verify_excision(h, g, genus_cap=genus_cap) for g in range(1, min(max_genus, 2) + 1)]
    checks += [verify_johnson(h, genus_cap=genus_cap), verify_torelli(h),
               verify_zg(h, min(2, max_genus), window, genus_cap=genus_cap)]
    return TheoremReport(h.name, checks)
