"""Behavior of the kernel dispatch registry."""

import pytest

from repro.kernels import (
    available_backends,
    available_kernels,
    get_default_backend,
    get_kernel,
    register_kernel,
    set_default_backend,
)


class TestLookup:
    def test_known_kernels_registered(self):
        names = available_kernels()
        for expect in ("trisolve_lower", "trisolve_upper", "upper_p2p_sim", "ilu_factor"):
            assert expect in names

    def test_each_kernel_has_both_backends(self):
        for name in ("trisolve_lower", "trisolve_upper", "upper_p2p_sim", "ilu_factor"):
            assert available_backends(name) == ["batched", "scalar"]

    def test_batched_is_default(self):
        for name in ("trisolve_lower", "trisolve_upper", "upper_p2p_sim", "ilu_factor"):
            assert get_default_backend(name) == "batched"
            assert get_kernel(name) is get_kernel(name, "batched")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("no_such_kernel")
        with pytest.raises(KeyError, match="unknown kernel"):
            available_backends("no_such_kernel")
        with pytest.raises(KeyError, match="unknown kernel"):
            get_default_backend("no_such_kernel")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="no 'cuda' backend"):
            get_kernel("trisolve_lower", "cuda")


class TestRegistration:
    def test_register_and_switch_default(self):
        calls = []

        @register_kernel("_test_kernel", "a")
        def impl_a():
            calls.append("a")

        @register_kernel("_test_kernel", "b")
        def impl_b():
            calls.append("b")

        # first registration is the default
        assert get_default_backend("_test_kernel") == "a"
        assert get_kernel("_test_kernel") is impl_a
        set_default_backend("_test_kernel", "b")
        assert get_kernel("_test_kernel") is impl_b
        with pytest.raises(KeyError):
            set_default_backend("_test_kernel", "c")

    def test_duplicate_backend_rejected(self):
        @register_kernel("_test_kernel_dup", "x")
        def impl():
            pass

        with pytest.raises(ValueError, match="already has"):

            @register_kernel("_test_kernel_dup", "x")
            def impl2():
                pass

    def test_default_flag_wins(self):
        @register_kernel("_test_kernel_flag", "first")
        def f1():
            pass

        @register_kernel("_test_kernel_flag", "second", default=True)
        def f2():
            pass

        assert get_default_backend("_test_kernel_flag") == "second"
