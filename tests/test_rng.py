"""Tests for seeded RNG helpers."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import derive_seed, hash_string, make_rng


class TestMakeRng:
    def test_int_seed_reproducible(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)

    def test_components_matter(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, 2) != derive_seed(1, 3)
        assert derive_seed(1, "x", 0) != derive_seed(2, "x", 0)

    def test_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_in_numpy_seed_range(self):
        seed = derive_seed(2**40, "retailer", 10**9)
        assert 0 <= seed < 2**63
        make_rng(seed)  # must be accepted by numpy

    def test_logical_units_are_disjoint(self):
        """Every (retailer, model, phase) unit of a sweep gets its own seed."""
        seeds = {
            derive_seed(7, f"r{retailer}", model, phase)
            for retailer in range(8)
            for model in range(8)
            for phase in ("trainer", "eval", "sampler")
        }
        assert len(seeds) == 8 * 8 * 3

    def test_same_in_a_fresh_interpreter(self):
        """No process identity leaks in: a worker derives the parent's seed."""
        here = derive_seed(11, "r3", 4, "trainer")
        script = (
            "from repro.rng import derive_seed\n"
            "print(derive_seed(11, 'r3', 4, 'trainer'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        there = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        assert int(there) == here


class TestHashString:
    def test_stable_known_value(self):
        """Must never change across processes/releases (seeds depend on it)."""
        assert hash_string("sigmund") == hash_string("sigmund")
        assert hash_string("") == 0xCBF29CE484222325 & 0x7FFFFFFFFFFFFFFF

    def test_distinct_strings_distinct_hashes(self):
        values = {hash_string(f"retailer_{i}") for i in range(500)}
        assert len(values) == 500


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=40))
def test_property_hash_string_in_range(text):
    assert 0 <= hash_string(text) < 2**63
