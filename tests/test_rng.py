"""Unit + property tests for the deterministic RNG registry."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_name_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=50))
    def test_is_64_bit(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestRngRegistry:
    def test_same_name_same_object(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        r2 = RngRegistry(7)
        _ = r1.stream("first")  # created before "target" in r1 only
        a = r1.stream("target").random(5)
        b = r2.stream("target").random(5)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        reg = RngRegistry(3)
        a = reg.stream("a").random(5)
        b = reg.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_fork_is_deterministic(self):
        a = RngRegistry(5).fork("rep1").stream("x").random(3)
        b = RngRegistry(5).fork("rep1").stream("x").random(3)
        assert np.allclose(a, b)

    def test_fork_differs_from_parent(self):
        parent = RngRegistry(5)
        child = parent.fork("rep1")
        assert not np.allclose(parent.stream("x").random(3), child.stream("x").random(3))

    def test_seed_property(self):
        assert RngRegistry(99).seed == 99
