import pytest

from hopfblocks import catalog, harness
from hopfblocks.harness import (
    Check,
    PreconditionError,
    TheoremReport,
    verify_excision,
    verify_johnson,
    verify_nonseparating,
    verify_prop_order,
    verify_separating,
    verify_torelli,
    verify_zg,
)


def _trivially_ribboned_z2():
    h = catalog.group_algebra(catalog.cyclic_group(2))
    h.r_matrix = h.t2_unit()  # R = 1 x 1
    h.ribbon = list(h.unit)
    assert h.validate().passed
    return h


def test_prop_order_small_doubles():
    for name, n in (("double:Z2", 2), ("double:Z3", 3)):
        check = verify_prop_order(catalog.get(name))
        assert check.passed
        assert f"Finite({n})" in check.rhs


def test_nonseparating_small():
    for name in ("double:Z2", "double:Z3"):
        checks = verify_nonseparating(catalog.get(name), 2)
        assert all(c.passed for c in checks)


def test_nonseparating_gate_refuses_nonfactorizable():
    h = _trivially_ribboned_z2()
    with pytest.raises(PreconditionError) as err:
        verify_nonseparating(h, 1)
    assert err.value.code == "FactorizableRequired"


def test_nonseparating_gate_refuses_missing_ribbon():
    with pytest.raises(PreconditionError) as err:
        verify_nonseparating(catalog.get("double:sweedler"), 1)
    assert err.value.code == "RibbonRequired"


def test_nonseparating_skips_beyond_cap():
    checks = verify_nonseparating(catalog.get("double:Z3"), 3)  # default cap is 2
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
