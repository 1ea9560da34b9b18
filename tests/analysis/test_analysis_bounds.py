"""Tests for the closed-form bound calculators and the CLI."""

import math

import pytest

import repro.bounds as bounds


class TestLemmaBounds:
    def test_lemma3(self):
        got = bounds.lemma3_max_load(100, 200, 1, 12, 1 / 12, 0.5)
        assert got == pytest.approx(1.0 + math.log(200, 11))

    def test_lemma3_invalid(self):
        with pytest.raises(ValueError):
            bounds.lemma3_max_load(10, 10, 12, 12, 1 / 12, 0.5)

    def test_lemma4(self):
        assert bounds.lemma4_unique_neighbors(12, 1 / 12, 10) == pytest.approx(
            100.0
        )

    def test_lemma5(self):
        assert bounds.lemma5_assignable(90, 1 / 12, 1 / 3) == pytest.approx(45.0)


class TestTheorem6Bounds:
    def test_fields_per_key(self):
        assert bounds.theorem6_fields_per_key(12) == 8
        assert bounds.theorem6_fields_per_key(16) == 11

    def test_space_monotone_in_sigma(self):
        a = bounds.theorem6_case_a_space_bits(100, 1 << 20, 8)
        b = bounds.theorem6_case_a_space_bits(100, 1 << 20, 64)
        assert b > a

    def test_case_b_field_bits(self):
        # lg n + ceil(sigma / ceil(2d/3))
        assert bounds.theorem6_case_b_field_bits(256, 33, 12) == 8 + 5

    def test_case_a_field_bits(self):
        assert bounds.theorem6_case_a_field_bits(160, 16) == 15 + 4


class TestTheorem7Bounds:
    def test_degree_floor(self):
        # d > 6 (1 + 1/eps)
        assert bounds.theorem7_degree_floor(1.0) == 13
        assert bounds.theorem7_degree_floor(0.5) == 19

    def test_num_levels(self):
        assert bounds.theorem7_num_levels(1024, 1 / 24) >= 1
        with pytest.raises(ValueError):
            bounds.theorem7_num_levels(1024, 0.5)  # 6 eps >= 1

    def test_avg_reads_geometric(self):
        assert bounds.theorem7_avg_reads(0.25) == pytest.approx(4 / 3)
        assert bounds.theorem7_avg_reads(0.25, max_levels=2) == pytest.approx(
            1.25
        )

    def test_avg_reads_invalid(self):
        with pytest.raises(ValueError):
            bounds.theorem7_avg_reads(1.0)


class TestMiscBounds:
    def test_btree_height(self):
        assert bounds.btree_height(10_000, 100) == 2
        assert bounds.btree_height(1, 100) == 1
        with pytest.raises(ValueError):
            bounds.btree_height(10, 1)

    def test_striping_blowup(self):
        assert bounds.striping_space_blowup(17) == 17

    def test_telescope_eps(self):
        assert bounds.telescope_eps([0.1, 0.1]) == pytest.approx(0.19)
        assert bounds.telescope_eps([]) == 0.0


class TestCLI:
    def test_main_runs_and_prints(self, capsys):
        from repro.__main__ import main

        rc = main(["--n", "64", "--degree", "16", "--lookups", "50",
                   "--no-btree"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S4.3 dynamic" in out
        assert "B-tree" not in out
