import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def ambient_precision():
    """Reference expressions in tests are computed at 35 digits.

    Package code pins its own working precision internally; this only
    ensures that expected values written inline in the tests do not get
    truncated to double precision.
    """
    old = mp.dps
    mp.dps = 35
    yield
    mp.dps = old


@pytest.fixture
def root_evaluations(monkeypatch):
    """``watch(module)`` wraps the module's ``find_root_bracketed`` and
    returns the list that collects the evaluation count of each solve."""
    def watch(module):
        evals = []
        solve = module.find_root_bracketed

        def counting_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            evals.append(result.evaluations)
            return result

        monkeypatch.setattr(module, "find_root_bracketed", counting_solve)
        return evals

    return watch
