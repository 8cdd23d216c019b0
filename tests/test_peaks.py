"""The local prominent-peak finder against scipy, and the import path.

``repro.peaks.find_peaks`` must select exactly the indices
``scipy.signal.find_peaks(x, prominence=p)[0]`` selects; scipy is
imported inside the tests only: it is a test dependency, and no module
under ``src/`` may import it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServerConfig
from repro.core.tuning import simulate_p_only_loop
from repro.peaks import find_peaks, local_maxima, prominences

SRC = Path(__file__).resolve().parent.parent / "src"

PROMINENCES = st.sampled_from([0.0, 0.02, 0.5, 1.0, 2.0, 3.5])


def _assert_matches_scipy(x: np.ndarray, prominence: float) -> None:
    """Same maxima, bit-identical prominences, same selected peaks."""
    from scipy.signal import find_peaks as scipy_find_peaks
    from scipy.signal import peak_prominences

    maxima = local_maxima(x)
    assert maxima.tolist() == scipy_find_peaks(x)[0].tolist()
    if maxima.size:
        expected = peak_prominences(x, maxima)[0]
        assert [v.hex() for v in prominences(x, maxima).tolist()] == [
            v.hex() for v in expected.tolist()
        ]
    expected = scipy_find_peaks(x, prominence=prominence)[0]
    found = find_peaks(x, prominence)
    assert found.dtype == expected.dtype
    assert found.tolist() == expected.tolist()


class TestMatchesScipy:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-3, 3), max_size=80), PROMINENCES)
    def test_integer_arrays_with_plateaus_and_ties(self, values, prominence):
        _assert_matches_scipy(np.array(values, dtype=float), prominence)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
        st.sampled_from([0.0, 0.5]),
        PROMINENCES,
    )
    def test_random_walks(self, steps, quantum, prominence):
        """Walks, optionally rounded onto a grid so plateaus appear."""
        walk = np.cumsum(steps)
        if quantum:
            walk = np.round(walk / quantum) * quantum
        _assert_matches_scipy(walk, prominence)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.floats(-0.02, 0.02),
        st.floats(3.0, 60.0),
        st.integers(3, 600),
        st.floats(0.0, 0.3),
        PROMINENCES,
    )
    def test_growing_and_decaying_sines(self, rate, period, n, ripple, prominence):
        t = np.arange(n, dtype=float)
        x = np.exp(rate * t) * np.sin(2.0 * np.pi * t / period)
        x += ripple * np.sin(2.0 * np.pi * t / 2.7)
        _assert_matches_scipy(x, prominence)

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("kp", [150.0, 1400.0, 1.0e5])
    def test_p_only_traces(self, quantized, kp):
        _, errors = simulate_p_only_loop(
            ServerConfig(), kp, 2000.0, duration_s=1200.0, quantized=quantized
        )
        for prominence in (0.0, 0.02, 0.5):
            _assert_matches_scipy(errors, prominence)

    def test_equal_peaks_walk_through_to_deeper_valleys(self):
        """A base lies beyond peaks of equal height, not at them."""
        x = np.array([0.0, 3.0, -5.0, 3.0, -1.0, 3.0, -9.0, 0.0])
        assert prominences(x, local_maxima(x)).tolist() == [3.0, 8.0, 8.0]
        _assert_matches_scipy(x, 5.0)

    def test_short_and_flat_inputs(self):
        for x in ([], [1.0], [1.0, 2.0], [2.0, 2.0, 2.0], [0.0, 1.0, 1.0]):
            _assert_matches_scipy(np.array(x, dtype=float), 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            find_peaks(np.zeros((2, 3)), 0.0)


def test_import_does_not_load_scipy():
    code = "import sys, repro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_no_source_module_imports_scipy():
    """An AST scan, so lazy imports inside functions count too."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
