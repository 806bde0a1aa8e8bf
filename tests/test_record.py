"""The frozen-record base, on the package's own records: binding, freezing,
equality, hash, repr and replace."""

import pytest

import delayplatoon as dp
from delayplatoon.analysis import L2PairVerdict
from delayplatoon.spacing import PolicyKind, StabilityVerdict

PARAMS = dp.VehicleParams(0.067, 0.15)


class TestFrozen:
    @pytest.mark.parametrize("name", ["tau", "phi", "other"])
    def test_assigning_raises(self, name):
        with pytest.raises(AttributeError, match=name):
            setattr(PARAMS, name, 1.0)
        assert (PARAMS.tau, PARAMS.phi) == (0.067, 0.15)

    @pytest.mark.parametrize("name", ["tau", "other"])
    def test_deleting_raises(self, name):
        with pytest.raises(AttributeError, match=name):
            delattr(PARAMS, name)
        assert PARAMS.tau == 0.067


class TestEqualityAndHash:
    def test_equal_fields_give_equal_records_and_hashes(self):
        a = dp.VehicleParams(0.067, 0.15)
        b = dp.VehicleParams(phi=0.15, tau=0.067)
        assert a == b and hash(a) == hash(b)
        assert a != dp.VehicleParams(0.067, 0.2)
        assert len({a, b, dp.VehicleParams(0.067, 0.2)}) == 2

    def test_defaults_count_as_given(self):
        assert dp.VehicleState() == dp.VehicleState(0.0, 0.0, 0.0)
        assert hash(dp.VehicleState()) == hash(dp.VehicleState(q=0.0, v=0.0, a=0.0))

    def test_records_of_different_types_are_unequal(self):
        state = dp.VehicleState(0.067, 0.15, 0.0)
        assert dp.VehicleState(0.067, 0.15) == state
        assert dp.VehicleParams(0.067, 0.15) != dp.VehicleState(0.067, 0.15)
        assert dp.VehicleParams(0.067, 0.15) != (0.067, 0.15)

    def test_cached_rows_do_not_enter_equality(self):
        cached = dp.QuasiPolynomial.dch_internal(0.4, 0.15)
        cached.rows  # noqa: B018 - fills the cache in the instance dict
        fresh = dp.QuasiPolynomial.dch_internal(0.4, 0.15)
        assert "rows" in vars(cached) and "rows" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)


def test_repr_lists_the_fields_in_order():
    assert repr(PARAMS) == "VehicleParams(tau=0.067, phi=0.15)"
    verdict = StabilityVerdict(True, "closed-form", margins=(0.1,))
    assert repr(verdict) == (
        "StabilityVerdict(stable=True, method='closed-form', rightmost_root=None, "
        "peak_omega=None, peak_magnitude=None, witness_omega=None, margins=(0.1,))"
    )


class TestBinding:
    def test_positional_keyword_and_default(self):
        verdict = L2PairVerdict(1, ok=True, max_violation=0.0)
        assert (verdict.follower, verdict.ok, verdict.max_violation) == (1, True, 0.0)
        policy = dp.SpacingPolicy(PolicyKind.DELAYED_CONSTANT_HEADWAY, 0.4)
        assert (policy.h_v, policy.h_a, policy.standstill) == (0.4, 0.0, 0.0)

    def test_field_defaults_are_shared_immutable_records(self):
        setup = dp.VehicleSetup(PARAMS)
        assert setup.state == dp.VehicleState() and setup.history is None
        assert setup.state is dp.VehicleSetup(PARAMS).state

    @pytest.mark.parametrize(
        ("args", "kwargs", "match"),
        [
            ((0.067,), {}, "missing arguments \\['phi'\\]"),
            ((), {}, "missing arguments \\['tau', 'phi'\\]"),
            ((0.067, 0.15), {"delay": 0.1}, "unexpected arguments \\['delay'\\]"),
            ((0.067,), {"tau": 0.1, "phi": 0.15}, "multiple values for \\['tau'\\]"),
            ((0.067, 0.15, 0.1), {}, "takes 2 positional arguments but 3 were given"),
        ],
        ids=["missing", "missing-all", "unknown", "repeated", "surplus"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, match):
        with pytest.raises(TypeError, match=match):
            dp.VehicleParams(*args, **kwargs)

    def test_post_init_runs_after_binding(self):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            dp.VehicleParams(phi=0.15, tau=-1.0)


class TestReplace:
    def test_replace_changes_the_named_fields_only(self):
        changed = PARAMS.replace(phi=0.2)
        assert changed == dp.VehicleParams(0.067, 0.2)
        assert PARAMS == dp.VehicleParams(0.067, 0.15)

    def test_replace_is_validated_again(self):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            dp.VehicleParams(0.067, 0.15).replace(tau=-1.0)

    def test_replace_rejects_an_unknown_field(self):
        with pytest.raises(TypeError, match="unexpected arguments \\['delay'\\]"):
            PARAMS.replace(delay=0.1)
