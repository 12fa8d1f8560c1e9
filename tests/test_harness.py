import pytest

from hopfblocks import blocks, catalog, harness, linalg, repcat
from hopfblocks.blocks import DIRECT, RELATIVE_CENTER, block_space, center_twist_op, nonseparating_twist_op
from hopfblocks.fields import CyclotomicField, PrimeField
from hopfblocks.linalg import OrderCertificate, finite, infinite, unknown
from hopfblocks.repcat import adjoint_module, regular_module
from hopfblocks.harness import (
    Check,
    TheoremReport,
    verify_excision,
    verify_johnson,
    verify_nonseparating,
    verify_prop_order,
    verify_separating,
    verify_torelli,
    verify_zg,
)
from oracles import dihedral_group_4


def _trivially_ribboned_z2():
    h = catalog.group_algebra(catalog.cyclic_group(2))
    h.r_matrix = h.t2_unit()  # R = 1 x 1
    h.ribbon = dict(h.unit)
    assert h.validate().passed
    return h


def test_prop_order_small_doubles():
    for name, n in (("double:Z2", 2), ("double:Z3", 3)):
        check = verify_prop_order(catalog.get(name))
        assert check.passed
        assert f"Finite({n})" in check.rhs


def test_prop_order_keeps_no_one_shot_twist():
    # the sampled twists on A^(x0), A and A x A are read at probe entries:
    # no tensor power and no twist matrix is built for them; the regular
    # twist, the row's side apart from H, stays for later checks
    h = catalog.double_of_group(catalog.symmetric_group_3())
    check = verify_prop_order(h)
    a = adjoint_module(h)
    assert a._powers == [a] and a._twist is None
    assert regular_module(h)._twist is not None
    assert (check.status, check.lhs, check.rhs, check.detail) == (
        "pass", "twist(regular): Finite(6)", "ribbon element: Finite(6)",
        "sampled module orders: ['Finite(1)', 'Finite(6)', 'Finite(3)', 'Finite(3)']")


def test_end_predicates_build_no_tensor_module_matrix(monkeypatch):
    # the ribbon-order row and both criteria read A^(xk) and A x H at probe
    # entries: no Kronecker sum is built for them
    real = linalg.kron_sum
    sizes = []

    def recording(field, nrows, ncols, terms):
        sizes.append(nrows)
        return real(field, nrows, ncols, terms)

    for module in (linalg, repcat, blocks):
        monkeypatch.setattr(module, "kron_sum", recording)
    h = catalog.double_of_group(catalog.symmetric_group_3())
    assert verify_prop_order(h).passed
    assert repcat.johnson_criterion(h) == (False, False) and repcat.torelli_criterion(h) is False
    assert sizes == []


def test_prop_order_fails_an_infinite_sampled_twist(monkeypatch):
    # v^n = 1 gives every module twist a finite order dividing n, so an
    # infinite verdict on a sampled module refutes the statement
    real = harness.power_twist_order

    def order(h, k):
        if k == 0:  # the twist of the trivial module of D(Z2)
            return OrderCertificate(infinite("NotSemisimple"), infinite("NotSemisimple"), False)
        return real(h, k)

    monkeypatch.setattr(harness, "power_twist_order", order)
    check = verify_prop_order(catalog.get("double:Z2"))
    assert (check.status, check.detail) == ("fail", "|twist(trivial)| = Infinite(NotSemisimple) does not divide 2")


def test_run_all_reaches_genus_two_on_a_dim_64_double():
    # 64^2 = 4096 <= 6000, so the default cap is 2 and no row is skipped
    h = catalog.double_of_group(dihedral_group_4())
    assert h.dim == 64
    report = harness.run_all(h)
    assert [c.status for c in report.checks] == ["pass"] * 9
    assert "(block dim 736)" in report.checks[2].lhs


def test_center_twist_keeps_no_ambient_twist(monkeypatch):
    # the center-model meridian twist is L_v x I restricted to the block: no
    # tensor module acts for it; the verdicts are those of the ribbon action
    h = catalog.double_of_group(catalog.symmetric_group_3())
    blocks_by_genus = [block_space(h, g, RELATIVE_CENTER) for g in (1, 2)]
    real = repcat._action_of_tensor_element
    built = []

    def recording(m, n, t):
        built.append((m.name, n.name))
        return real(m, n, t)

    monkeypatch.setattr(repcat, "_action_of_tensor_element", recording)
    for block in blocks_by_genus:
        center_twist_op(block)
    assert built == []
    report = harness.run_all(h)
    assert [(c.name, c.status, c.lhs, c.rhs) for c in report.checks[4:6]] == [
        ("excision-consistency(g=1)", "pass", "direct: dim 8, gl=Finite(6), pgl=Finite(6)",
         "center: dim 8, gl=Finite(6), pgl=Finite(6)"),
        ("excision-consistency(g=2)", "pass", "direct: dim 116, gl=Finite(6), pgl=Finite(6)",
         "center: dim 116, gl=Finite(6), pgl=Finite(6)"),
    ]
    assert all(c.status == "pass" for c in report.checks)


def test_nonseparating_small():
    for name in ("double:Z2", "double:Z3"):
        checks = verify_nonseparating(catalog.get(name), 2)
        assert all(c.passed for c in checks)


def test_nonseparating_gate_refuses_nonfactorizable():
    h = _trivially_ribboned_z2()
    [check] = verify_nonseparating(h, 1)
    assert (check.status, check.reason) == ("gated", "FactorizableRequired")
    assert check.detail == f"FactorizableRequired: {h.name}"


def test_nonseparating_gate_refuses_missing_ribbon():
    [check] = verify_nonseparating(catalog.get("double:sweedler"), 3)
    assert (check.name, check.status, check.reason) == ("nonseparating-twist-order(g=1..3)", "gated", "RibbonRequired")


def test_nonseparating_skips_beyond_cap():
    checks = verify_nonseparating(catalog.get("double:Z3"), 4)  # default cap is 3: 9^4 > 6000
    assert checks[-1].status == "skipped"
    assert all(c.passed for c in checks[:-1])


def test_separating_small():
    assert verify_separating(catalog.get("double:Z2"), 1, 1).passed
    assert verify_separating(catalog.get("double:Z3"), 1, 1).passed
    assert verify_separating(catalog.get("double:Z2"), 1, 2).passed


def test_johnson_positive_and_negative():
    assert verify_johnson(catalog.get("double:Z2")).passed
    check = verify_johnson(catalog.get("double:Z3"))
    assert check.passed


def test_torelli_cases():
    for name in ("double:Z2", "double:Z3", "double:S3", "double:sweedler"):
        assert verify_torelli(catalog.get(name)).passed, name


def test_torelli_trivial_r():
    h = _trivially_ribboned_z2()
    assert verify_torelli(h).passed


def test_zg_z2():
    check = verify_zg(catalog.get("double:Z2"), 2, 4)
    assert check.passed
    assert "25" in check.lhs  # |2Z^2 within [-4,4]^2| = 5*5


def test_zg_genus_one():
    check = verify_zg(catalog.get("double:Z3"), 1, 6)
    assert check.passed


@pytest.mark.parametrize("genus, window", [(0, 4), (2, -1)], ids=["genus0", "window-1"])
def test_zg_rejects_genus_below_one_and_negative_window(genus, window):
    # genus 0 has no meridian twist; a negative window has no lattice point
    with pytest.raises(ValueError):
        verify_zg(catalog.get("double:Z2"), genus, window)


def test_a_row_reading_unknown_orders_is_skipped():
    # Unknown means no order up to the cap: it neither confirms nor refutes
    # a statement, not even when both sides read it
    def body():
        return "", "", harness._verdict_eq(unknown(10000), unknown(10000)), ""

    check = harness._run(catalog.get("double:Z2"), "x", "s", body)
    assert (check.status, check.reason) == ("skipped", "OrderUnknown")
    assert "Unknown(cap=10000)" in check.detail
    assert TheoremReport("X", [check]).passed and not check.passed


def _ribbon_order_reads(monkeypatch, h, verdict):
    cert = OrderCertificate(verdict, verdict, verdict.is_finite)
    monkeypatch.setattr(h, "ribbon_order", lambda: cert)


def test_zg_skips_an_unknown_ribbon_order(monkeypatch):
    h = catalog.get("double:Z2")
    _ribbon_order_reads(monkeypatch, h, unknown(10000))
    check = verify_zg(h, 1, 4)
    assert (check.status, check.reason) == ("skipped", "OrderUnknown")


def test_zg_expects_only_the_origin_for_an_infinite_ribbon_order(monkeypatch):
    # the meridian twist of D(Z2) has order 2, so the claim is refuted
    h = catalog.get("double:Z2")
    _ribbon_order_reads(monkeypatch, h, infinite("NotSemisimple"))
    check = verify_zg(h, 1, 4)
    assert (check.status, check.lhs, check.rhs) == (
        "fail", "trivially-acting points: 5", "only the origin (infinite ribbon order)")


def test_verdict_comparisons():
    assert not harness._verdict_eq(finite(2), infinite("NotSemisimple"))
    assert harness._verdict_eq(infinite("NotSemisimple"), infinite("RootNotUnity"))
    assert harness._verdict_min(finite(3), infinite("RootNotUnity")) == finite(3)
    assert harness._verdict_min(infinite("RootNotUnity"), finite(3)) == finite(3)
    with pytest.raises(harness.OrderUnknown):
        harness._verdict_min(finite(3), unknown(10000))


def test_excision_small():
    for name in ("double:Z2", "double:Z3"):
        for g in (1, 2):
            assert verify_excision(catalog.get(name), g).passed


def test_run_all_gates_sweedler_double():
    report = harness.run_all(catalog.get("double:sweedler"), max_genus=1, window=2)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["torelli-criterion"] == "pass"
    assert any(s == "gated" for s in statuses.values())
    assert not report.has_failures


def _row(c: Check) -> tuple:
    return c.name, c.statement, c.status, c.detail, c.reason


@pytest.mark.parametrize("name, reasons", [
    ("double:sweedler", {"RibbonRequired"}),
    ("double:Z3/F7", {"CharacteristicZeroRequired"}),
    ("group:S3", {"FactorizableRequired", "RMatrixRequired"}),
], ids=["D(H4)", "D(Z3)/F7", "k[S3]"])
def test_direct_calls_give_the_rows_of_run_all(name, reasons):
    # a gated hypothesis is a row from every verify_*, never an exception,
    # and run_all only collects those rows
    if name == "double:Z3/F7":
        from hopfblocks.fields import PrimeField

        h = catalog.double_of_group(catalog.cyclic_group(3), PrimeField(7))
    else:
        h = catalog.get(name)
    direct = [verify_prop_order(h), *verify_nonseparating(h, 2), verify_separating(h, 1, 1)]
    if h.dim <= 8:
        direct.append(verify_separating(h, 1, 2))
    direct += [verify_excision(h, 1), verify_excision(h, 2), verify_johnson(h), verify_torelli(h),
               verify_zg(h, 2, 4)]
    report = harness.run_all(h)
    assert [_row(c) for c in direct] == [_row(c) for c in report.checks]
    gated = [c for c in report.checks if c.status == "gated"]
    assert {c.reason for c in gated} == reasons
    assert all(c.detail == f"{c.reason}: {h.name}" for c in gated)
    assert "nonseparating-twist-order(g=1..2)" in [c.name for c in gated]


@pytest.mark.parametrize("kwargs", [{"max_genus": 0}, {"window": -1}], ids=["max_genus=0", "window=-1"])
def test_run_all_rejects_bad_arguments_before_any_check(kwargs, monkeypatch):
    def no_check(*args, **kw):
        raise AssertionError("a check ran")

    monkeypatch.setattr(harness, "verify_prop_order", no_check)
    with pytest.raises(ValueError):
        harness.run_all(catalog.get("double:Z2"), **kwargs)


def test_report_json_and_table():
    report = TheoremReport("X", [Check("a", "s", lhs="1", rhs="1", status="pass")])
    doc = report.to_json()
    assert doc["report_version"] == 1
    assert doc["passed"]
    table = report.to_table()
    assert "a" in table and "PASS" in table


def test_skipped_is_not_passed_semantics():
    report = TheoremReport("X", [Check("a", "s", status="skipped", detail="cap")])
    assert report.passed  # no failures
    assert not report.checks[0].passed  # but the check itself did not pass


def test_gated_rows_name_their_checks():
    report = harness.run_all(catalog.get("double:sweedler"))
    assert [c.name for c in report.checks] == [
        "ribbon-element-order",
        "nonseparating-twist-order(g=1..2)",
        "separating-twist-order(1,1)",
        "excision-consistency(g=1)",
        "excision-consistency(g=2)",
        "johnson-kernel-criterion",
        "torelli-criterion",
        "commuting-twist-lattice(g=2, window=4)",
    ]
    gated = [c for c in report.checks if c.status == "gated"]
    assert len(gated) == 7
    assert all(c.statement and c.detail == "RibbonRequired: D(H4)" for c in gated)
    table_rows = report.to_table().splitlines()[2:]
    for c, line in zip(report.checks, table_rows, strict=True):
        assert line.startswith(c.name)
        assert ("RibbonRequired" in line) == (c.status == "gated")


@pytest.mark.parametrize("field, zeta, order", [(CyclotomicField(3), None, "Infinite(NotSemisimple)"),
                                                (PrimeField(7), 2, "Finite(21)")], ids=["Qzeta3", "F7"])
def test_taft_double_at_genus_one(field, zeta, order):
    # D(T_3), the non-semisimple ribbon double, through the catalog's ribbon
    # search; over F_7 the harness gates the rows, so the orders are read
    # off the blocks directly
    zeta = field.zeta() if zeta is None else zeta
    d = catalog.taft_double(catalog.taft(3, field, zeta))
    assert d.validate().passed and d.flags["ribbon_choice"] == "u^-1*g4"
    direct, center = block_space(d, 1, DIRECT), block_space(d, 1, RELATIVE_CENTER)
    assert direct.dim == center.dim == 12
    for cert in (d.ribbon_order(), nonseparating_twist_op(direct, 1).certificate,
                 center_twist_op(center).certificate):
        assert (str(cert.gl_order), str(cert.pgl_order)) == (order, order)
    if field.kind != "Fp":
        checks = [*verify_nonseparating(d, 1), verify_excision(d, 1), verify_zg(d, 1, 4)]
        assert [c.status for c in checks] == ["pass"] * 3
