"""Schur dimensions, tableau oracle, Bott cohomology and the bridge identity."""

from __future__ import annotations

import math

import pytest

from tautclass.claims import Claim, run_claims
from tautclass.cli import main
from tautclass.schur import (bott_vanishing, bridge_identity_check,
                             chi_line_bundle, euler_char_forms,
                             form_cohomology_dims, normalize_partition,
                             plethysm_rectangle_check, rectangle, schur_dim,
                             ssyt_count, sym_power_dim)


def partitions_up_to(weight: int):
    def rec(remaining: int, cap: int, acc: tuple[int, ...]):
        yield acc
        for part in range(min(remaining, cap), 0, -1):
            yield from rec(remaining - part, part, acc + (part,))
    yield from rec(weight, weight, ())


def test_normalize_partition():
    assert normalize_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        normalize_partition([1, 2])
    with pytest.raises(ValueError):
        normalize_partition([2, -1])


def test_schur_dim_special_shapes():
    for n in range(1, 7):
        for k in range(7):
            assert schur_dim((k,), n) == math.comb(n + k - 1, k)
    for n in range(1, 7):
        for p in range(1, n + 1):
            assert schur_dim((1,) * p, n) == math.comb(n, p)
    assert schur_dim((2, 2), 3) == 6
    assert schur_dim((2, 2, 1), 2) == 0  # too many rows


def test_schur_dim_cap(capsys):
    # the Weyl product is quadratic in n with growing integers: a large
    # --dim is a usage error, not a long wait
    assert main(["schur", "dim", "--partition", "1", "--dim", "200"]) == 0
    assert capsys.readouterr().out == "200\n"
    assert main(["schur", "dim", "--partition", "1", "--dim", "201"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n <= 200" in err
    claim = Claim("t.big", "d", "", "schur.dim", {"partition": [1], "n": 201},
                  {"int": 201}, "trivial")
    result = run_claims(registry=(claim,))[0]
    assert result.status == "fail" and "n <= 200" in result.computed
    # the weight |mu| is capped too, so the dimension always prints
    assert main(["schur", "dim", "--partition", "1000", "--dim", "2"]) == 0
    assert capsys.readouterr().out == "1001\n"
    assert main(["schur", "dim", "--partition", "1001", "--dim", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need |mu| <= 1000, got 1001\n"
    claim = Claim("t.heavy", "d", "", "schur.dim",
                  {"partition": [600, 401], "n": 3}, {"int": 0}, "trivial")
    result = run_claims(registry=(claim,))[0]
    assert result.status == "fail"
    assert result.computed == "error: need |mu| <= 1000, got 1001"


def test_schur_dim_matches_ssyt_oracle():
    for mu in partitions_up_to(8):
        for n in range(1, 6):
            assert schur_dim(mu, n) == ssyt_count(mu, n), (mu, n)


def test_rectangle_identity_grid():
    for n in range(2, 11):
        for k in range(1, 11):
            assert plethysm_rectangle_check(n, k)
            assert schur_dim(rectangle(k, n - 1), n) == sym_power_dim(n, k)


def test_rectangle_dominates_intermediate_wedges():
    # S_(k^m) sits inside Sym^k of the m-th wedge, so its dimension is bounded
    for n in range(2, 6):
        for m in range(1, n + 1):
            for k in range(1, 4):
                wedge_dim = math.comb(n, m)
                outer = math.comb(wedge_dim + k - 1, k)
                assert schur_dim(rectangle(k, m), n) <= outer


def test_chi_line_bundle():
    assert chi_line_bundle(2, 0) == 1
    assert chi_line_bundle(2, -4) == 3  # h^2(O(-4)) on the plane
    assert chi_line_bundle(3, 2) == 10


def test_euler_char_examples():
    assert euler_char_forms(2, 1, 1) == 0
    assert euler_char_forms(2, 1, 2) == 3
    for n in range(1, 5):
        for k in range(-3, 4):
            assert euler_char_forms(n, 0, k) == chi_line_bundle(n, k)
    with pytest.raises(ValueError):
        euler_char_forms(2, 3, 1)


def test_serre_duality_symmetry():
    for n in range(1, 7):
        for p in range(n + 1):
            for k in range(-10, 11):
                assert (euler_char_forms(n, p, k)
                        == (-1) ** n * euler_char_forms(n, n - p, -k))


def test_cohomology_dims_match_euler_characteristic():
    for n in range(1, 7):
        for p in range(n + 1):
            for k in range(-10, 11):
                dims = form_cohomology_dims(n, p, k)
                chi = sum((-1) ** q * h for q, h in enumerate(dims))
                assert chi == euler_char_forms(n, p, k), (n, p, k)


def test_middle_cohomology_is_one_dimensional():
    for n in range(1, 7):
        for p in range(n + 1):
            dims = form_cohomology_dims(n, p, 0)
            assert dims[p] == 1 and sum(dims) == 1
            assert euler_char_forms(n, p, 0) == (-1) ** p


def test_bott_vanishing():
    assert bott_vanishing(3, 1, 1)
    assert bott_vanishing(5, 2, 3)
    for n in range(2, 7):
        for r in range(n + 1):
            for j in range(1, n):
                assert bott_vanishing(n, r, j)
    with pytest.raises(ValueError):
        bott_vanishing(3, 1, 3)


def test_bridge_identity():
    assert bridge_identity_check(2, 3, 5)
    assert bridge_identity_check(4, 3, 2)
    assert bridge_identity_check(3, 5, 1)
    for n in range(2, 9):
        for d in range(1, 9):
            for k in range(1, 7):
                assert bridge_identity_check(n, d, k)
