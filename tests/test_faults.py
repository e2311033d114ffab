"""A catalogue of seeded faults, each with the check that must catch it.

Each case injects one fault by monkeypatch, never by editing the sources,
runs the named check and asserts that it fails.  A check that still passes
under its fault cannot see that defect."""

import numpy as np

from fdsic import validation


def _poisoned(route):
    """route with every array it returns filled with NaN."""

    def poisoned(*args):
        result = route(*args)
        if isinstance(result, tuple):
            return tuple(np.full_like(part, np.nan) for part in result)
        return np.full_like(result, np.nan)

    return poisoned


def test_qp_oracle_fails_on_nan_real_program_weights(monkeypatch):
    monkeypatch.setattr(
        validation, "real_qp_weights", _poisoned(validation.real_qp_weights)
    )
    result = validation.check_qp_oracle(fast=True)
    assert result.line().startswith(
        "FAIL qp-oracle: worst error nan"
    ), result.line()


def test_model_equivalence_fails_on_nan_synthesis(monkeypatch):
    monkeypatch.setattr(
        validation,
        "synthesize_received",
        _poisoned(validation.synthesize_received),
    )
    result = validation.check_model_equivalence()
    assert result.line().startswith(
        "FAIL model-equivalence: worst error nan"
    ), result.line()
