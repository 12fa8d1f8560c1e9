"""Theorem-verification suite producing a structured pass/fail report per
algebra.

Every check computes both sides of the statement it verifies independently
and records them; gated checks (hypotheses not satisfied) and skipped checks
(resource caps) are reported explicitly, never silently passed.
"""

from __future__ import annotations

import time

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
    adjoint_module,
    monodromy,
    muger_central,
    regular_module,
    tensor_power,
    trivial_module,
    twist,
)


class PreconditionError(Exception):
    """A theorem's hypotheses are not met by the input algebra.

    ``name`` and ``statement`` are those of the check that was gated, so its
    row in a report reads like the check it stands for.
    """

    def __init__(self, code: str, detail: str, name: str, statement: str):
        self.code = code
        self.name = name
        self.statement = statement
        super().__init__(f"{code}: {detail}")


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


def _timed(check: Check, t0: float) -> Check:
    check.runtime = time.perf_counter() - t0
    return check


def _skipped(name: str, statement: str, exc: GenusCapExceeded) -> Check:
    return Check(name, statement, status="skipped", detail=str(exc), reason="GenusCapExceeded")


def require_ribbon_factorizable(h: HopfData, name: str, statement: str) -> None:
    """Gate: the twist-order theorems assume a ribbon factorizable algebra
    over a characteristic-zero field.  name and statement are the gated
    check's."""
    if h.field.kind == "Fp":
        code = "CharacteristicZeroRequired"
    elif h.r_matrix is None or not h.is_factorizable()[0]:
        code = "FactorizableRequired"
    elif h.ribbon is None:
        code = "RibbonRequired"
    else:
        return
    raise PreconditionError(code, h.name, name, statement)


def _verdict_eq(a: OrderVerdict, b: OrderVerdict) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind == "finite":
        return a.n == b.n
    return True  # infinite verdicts compare by kind; reasons may differ


def _verdict_min(a: OrderVerdict, b: OrderVerdict) -> OrderVerdict:
    if a.kind == "finite" and b.kind == "finite":
        return a if a.n <= b.n else b
    if a.kind == "finite":
        return a
    return b


def verify_prop_order(h: HopfData, cap: int | None = None) -> Check:
    """Order of the ribbon element equals the order of the twist on a
    projective generator, and bounds the twist order of every module."""
    t0 = time.perf_counter()
    name = "ribbon-element-order"
    statement = ("order of the generalized ribbon element = order of the twist on the regular module, "
                 "and the twist order of each sampled module divides it")
    require_ribbon_factorizable(h, name, statement)
    ribbon_cert = h.ribbon_order(cap=cap)
    reg = regular_module(h)
    reg_cert = operator_order(twist(reg), cap=cap)
    a = adjoint_module(h)
    sample = [trivial_module(h), reg, a, tensor_power(a, 2)]
    sample_orders = [reg_cert.gl_order if m is reg else operator_order(twist(m), cap=cap).gl_order
                     for m in sample]
    ok = _verdict_eq(ribbon_cert.gl_order, reg_cert.gl_order)
    detail = ""
    if ribbon_cert.gl_order.kind == "finite":
        n = ribbon_cert.gl_order.n
        for m, v in zip(sample, sample_orders):
            if v.kind == "finite" and n % v.n != 0:
                ok = False
                detail = f"|twist({m.name})| = {v.n} does not divide {n}"
    check = Check(
        name=name,
        statement=statement,
        lhs=f"twist(regular): {reg_cert.gl_order}",
        rhs=f"ribbon element: {ribbon_cert.gl_order}",
        status="pass" if ok else "fail",
        detail=detail or f"sampled module orders: {[str(v) for v in sample_orders]}",
    )
    return _timed(check, t0)


def verify_nonseparating(h: HopfData, g_max: int, cap: int | None = None,
                         genus_cap: int | None = None) -> list[Check]:
    """Every meridian twist acts with PGL order equal to the ribbon twist order."""
    statement = "PGL order of the twist about each handle meridian equals the ribbon twist order"
    require_ribbon_factorizable(h, f"nonseparating-twist-order(g=1..{g_max})", statement)
    ribbon = h.ribbon_order(cap=cap)
    checks = []
    for g in range(1, g_max + 1):
        t0 = time.perf_counter()
        name = f"nonseparating-twist-order(g={g})"
        try:
            block = block_space(h, g, DIRECT, genus_cap=genus_cap)
        except GenusCapExceeded as exc:
            checks.append(_timed(_skipped(name, statement, exc), t0))
            continue
        orders = []
        ok = True
        for handle in range(1, g + 1):
            op = nonseparating_twist_op(block, handle, cap=cap)
            orders.append(str(op.certificate.pgl_order))
            if not _verdict_eq(op.certificate.pgl_order, ribbon.gl_order):
                ok = False
        checks.append(
            _timed(
                Check(
                    name,
                    statement,
                    lhs=f"handles: {orders} (block dim {block.dim})",
                    rhs=f"|ribbon| = {ribbon.gl_order}",
                    status="pass" if ok else "fail",
                ),
                t0,
            )
        )
    return checks


def verify_separating(h: HopfData, g_left: int, g_right: int, cap: int | None = None) -> Check:
    """Separating twist order = min of the twist orders of the two end powers."""
    t0 = time.perf_counter()
    name = f"separating-twist-order({g_left},{g_right})"
    statement = "PGL order of the separating twist = min of the twist orders of the end powers"
    require_ribbon_factorizable(h, name, statement)
    sep = separating_twist_op(h, g_left, g_right, cap=cap)
    expected = _verdict_min(sep.twist_left_order.gl_order, sep.twist_right_order.gl_order)
    ok = _verdict_eq(sep.certificate.pgl_order, expected)
    return _timed(
        Check(
            name=name,
            statement=statement,
            lhs=f"operator: {sep.certificate.pgl_order} (block dim {sep.dim})",
            rhs=f"min({sep.twist_left_order.gl_order}, {sep.twist_right_order.gl_order}) = {expected}",
            status="pass" if ok else "fail",
        ),
        t0,
    )


def verify_johnson(h: HopfData, cap: int | None = None) -> Check:
    """Separating twists act trivially iff the end twist is trivial and the
    end's self double braiding is trivial; cross-checked on the genus-2
    separating operator."""
    t0 = time.perf_counter()
    name = "johnson-kernel-criterion"
    statement = "separating twists act trivially iff end twist and end self-monodromy are trivial"
    require_ribbon_factorizable(h, name, statement)
    a = adjoint_module(h)
    twist_trivial = twist(a).is_identity()
    braid_trivial = monodromy(a, a).is_identity()
    predicted = twist_trivial and braid_trivial
    sep = separating_twist_op(h, 1, 1, cap=cap)
    sep_trivial = sep.matrix.is_identity()
    ok = sep_trivial == predicted
    return _timed(
        Check(
            name=name,
            statement=statement,
            lhs=f"genus-2 separating operator trivial: {sep_trivial}",
            rhs=f"predicted (twist trivial: {twist_trivial}, double braiding trivial: {braid_trivial}): {predicted}",
            status="pass" if ok else "fail",
        ),
        t0,
    )


def verify_torelli(h: HopfData) -> Check:
    """The end is transparent (trivial monodromy with a generator) iff the
    algebra is commutative; when commutative, the end is a sum of trivial
    modules."""
    t0 = time.perf_counter()
    name = "torelli-criterion"
    statement = "the end is in the Mueger center iff the algebra is commutative"
    if h.r_matrix is None:
        raise PreconditionError("RMatrixRequired", h.name, name, statement)
    a = adjoint_module(h)
    central = muger_central(a)
    commutative, witness = h.is_commutative()
    ok = central == commutative
    detail = ""
    if commutative and ok:
        F = h.field
        iso_trivial = all(
            a.act(i).scalar_value() is not None
            and F.eq(a.act(i).scalar_value(), h.counit[i])
            for i in range(h.dim)
        )
        ok = iso_trivial
        detail = f"adjoint action scalar (counit) on all basis elements: {iso_trivial}"
    elif not commutative:
        detail = f"noncommutativity witness: {witness}"
    return _timed(
        Check(
            name=name,
            statement=statement,
            lhs=f"end transparent: {central}",
            rhs=f"commutative: {commutative}",
            status="pass" if ok else "fail",
            detail=detail,
        ),
        t0,
    )


def verify_zg(h: HopfData, genus: int, window: int, cap: int | None = None,
              genus_cap: int | None = None) -> Check:
    """The lattice of commuting meridian twists acts with kernel exactly the
    multiples of the ribbon twist order (all-or-nothing per coordinate)."""
    t0 = time.perf_counter()
    name = f"commuting-twist-lattice(g={genus}, window={window})"
    statement = "lattice points acting trivially are exactly the multiples of the ribbon order"
    require_ribbon_factorizable(h, name, statement)
    ribbon = h.ribbon_order(cap=cap).gl_order
    try:
        block = block_space(h, genus, DIRECT, genus_cap=genus_cap)
    except GenusCapExceeded as exc:
        return _timed(_skipped(name, statement, exc), t0)
    ops = [nonseparating_twist_op(block, i, cap=cap).matrix for i in range(1, genus + 1)]
    powers = []
    for op in ops:
        table = {0: Matrix.identity(h.field, block.dim)}
        inv = inverse(op)
        for k in range(1, window + 1):
            table[k] = table[k - 1].mul(op)
            table[-k] = table.get(-(k - 1), table[0]).mul(inv)
        powers.append(table)
    trivial_points = []
    points = _lattice_points(genus, window)
    for pt in points:
        if _lattice_point_trivial(powers, pt):
            trivial_points.append(pt)
    if ribbon.kind == "finite":
        n = ribbon.n
        expected = [pt for pt in points if all(c % n == 0 for c in pt)]
        ok = trivial_points == expected
        rhs = f"multiples of {n} in window: {len(expected)} points"
    else:
        expected = [tuple([0] * genus)]
        ok = trivial_points == expected
        rhs = "only the origin (infinite ribbon order)"
    return _timed(
        Check(
            name,
            statement,
            lhs=f"trivially-acting points: {len(trivial_points)}",
            rhs=rhs,
            status="pass" if ok else "fail",
            detail="" if ok else f"found {trivial_points[:8]}",
        ),
        t0,
    )


def _lattice_points(genus: int, window: int) -> list[tuple]:
    pts = [()]
    for _ in range(genus):
        pts = [p + (c,) for p in pts for c in range(-window, window + 1)]
    return pts


def _lattice_point_trivial(powers: list[dict], pt: tuple) -> bool:
    if len(pt) == 2:
        # compare T1^a = T2^(-b) without another product
        return powers[0][pt[0]] == powers[1][-pt[1]]
    acc = None
    for table, c in zip(powers, pt):
        acc = table[c] if acc is None else acc.mul(table[c])
    return acc.is_identity()


def verify_excision(h: HopfData, genus: int, cap: int | None = None,
                    genus_cap: int | None = None) -> Check:
    """Direct and relative-center models agree in dimension and twist order."""
    t0 = time.perf_counter()
    name = f"excision-consistency(g={genus})"
    statement = "direct and relative-center block models agree (dimension and twist certificate)"
    require_ribbon_factorizable(h, name, statement)
    try:
        direct = block_space(h, genus, DIRECT, genus_cap=genus_cap)
        center = block_space(h, genus, RELATIVE_CENTER, genus_cap=genus_cap)
    except GenusCapExceeded as exc:
        return _timed(_skipped(name, statement, exc), t0)
    op_d = nonseparating_twist_op(direct, 1, cap=cap)
    op_c = center_twist_op(center, cap=cap)
    dims_ok = direct.dim == center.dim
    cert_ok = _verdict_eq(op_d.certificate.gl_order, op_c.certificate.gl_order) and _verdict_eq(
        op_d.certificate.pgl_order, op_c.certificate.pgl_order
    )
    return _timed(
        Check(
            name,
            statement,
            lhs=f"direct: dim {direct.dim}, {op_d.certificate}",
            rhs=f"center: dim {center.dim}, {op_c.certificate}",
            status="pass" if (dims_ok and cert_ok) else "fail",
        ),
        t0,
    )


def run_all(h: HopfData, max_genus: int = 2, window: int = 4, cap: int | None = None,
            genus_cap: int | None = None) -> TheoremReport:
    """The full theorem suite; checks whose hypotheses fail are gated.

    Raises ValueError for max_genus < 1 or window < 0 before any check runs.
    """
    if max_genus < 1 or window < 0:
        raise ValueError(f"max_genus must be at least 1 and window at least 0, got {max_genus} and {window}")
    report = TheoremReport(algebra=h.name)

    def gated(fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if isinstance(result, list):
                report.checks.extend(result)
            else:
                report.checks.append(result)
        except PreconditionError as exc:
            report.checks.append(
                Check(
                    name=exc.name,
                    statement=exc.statement,
                    status="gated",
                    detail=str(exc),
                    runtime=time.perf_counter() - t0,
                    reason=exc.code,
                )
            )

    gated(verify_prop_order, h, cap=cap)
    gated(verify_nonseparating, h, max_genus, cap=cap, genus_cap=genus_cap)
    gated(verify_separating, h, 1, 1, cap=cap)
    if h.dim <= 8 and (genus_cap is None or genus_cap >= 3):
        gated(verify_separating, h, 1, 2, cap=cap)
    for g in range(1, min(max_genus, 2) + 1):
        gated(verify_excision, h, g, cap=cap, genus_cap=genus_cap)
    gated(verify_johnson, h, cap=cap)
    gated(verify_torelli, h)
    zg_genus = min(2, max_genus)
    gated(verify_zg, h, zg_genus, window, cap=cap, genus_cap=genus_cap)
    return report
