import subprocess
import sys

import pytest

from repro.lp import Model, solve
from tests.lp.oracle import scipy_available, solve_scipy


def _toy():
    m = Model()
    x = m.var("x", ub=3.0)
    m.maximize(x)
    return m, x


class TestFacade:
    def test_auto_solves(self):
        m, x = _toy()
        s = solve(m)
        assert s.value(x) == pytest.approx(3.0)

    def test_accepts_model_or_lowered_program(self):
        m, x = _toy()
        program = m.lower()
        assert solve(program).value(x) == solve(m).value(x)
        # The program is what gets patched and re-solved.
        program.set_bounds(program.cols([x]), up=5.0)
        assert solve(program).value(x) == pytest.approx(5.0)

    def test_backend_knob_is_gone(self):
        m, _ = _toy()
        with pytest.raises(TypeError):
            solve(m, backend="scipy")

    @pytest.mark.skipif(not scipy_available(), reason="scipy missing")
    def test_explicit_backends_agree(self):
        """The production solver and the test oracle, on model and program."""
        m, _ = _toy()
        results = [solve(m), solve_scipy(m), solve_scipy(m.lower())]
        assert all(r.objective == pytest.approx(3.0) for r in results)

    @pytest.mark.skipif(not scipy_available(), reason="scipy missing")
    def test_backend_recorded_in_solution(self):
        m, _ = _toy()
        assert solve_scipy(m).backend == "scipy"
        assert solve(m).backend == "bounded"


def test_runtime_never_imports_scipy():
    """scipy is the test oracle's dependency, not the library's."""
    code = (
        "import sys\n"
        "from repro.experiments.figures import run_fig6\n"
        "assert run_fig6(duration_scale=0.02).phases\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported at run time'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
