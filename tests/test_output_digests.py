"""``tools/output_digests.py --save`` and ``--compare``: how a saved key reads when it moved and when it did not."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_digests  # noqa: E402


def test_compare_reads_identical_or_the_largest_relative_difference(tmp_path, capsys):
    first = {
        "run": {"rates.csv": b"k,rate\n0,1.5\n1,2.25\n", "beampattern.csv": None, "notes.txt": b"rho 0.5\n"},
        "cov": {3: {"matrix": np.array([[1.0, 0.5j], [-0.5j, 1.0]]), "objective": 4.0, "stop_reason": "plateau"}},
        "gone": np.arange(3),
    }
    second = {
        "run": {"rates.csv": b"k,rate\n0,1.5\n1,2.250009\n", "beampattern.csv": None, "notes.txt": b"rho: 0.5\n"},
        "cov": {3: {"matrix": np.array([[1.0, 0.5j + 2e-6], [-0.5j, 1.0]]), "objective": 4.0, "stop_reason": "plateau"}},
    }
    output_digests.save(first, tmp_path / "a")
    output_digests.save(second, tmp_path / "b")
    assert output_digests.compare(tmp_path / "a", tmp_path / "a") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "6 keys, 6 identical, 0 differ"
    assert output_digests.compare(tmp_path / "a", tmp_path / "b") == 1
    assert capsys.readouterr().out.splitlines() == [
        "cov/3/matrix: max relative difference 2e-06",  # an array against its largest magnitude, 1
        "cov/3/objective: identical",
        "cov/3/stop_reason: identical",
        f"gone: only in {tmp_path / 'a'}",
        "run/notes.txt: differs beyond its numbers",
        "run/rates.csv: max relative difference 4e-06",  # each number against itself: 9e-6 / 2.250009
        "6 keys, 2 identical, 4 differ",
    ]


def test_one_of_save_and_compare_is_required(monkeypatch, capsys):
    monkeypatch.setattr(output_digests, "outputs", lambda: pytest.fail("ran the outputs"))
    with pytest.raises(SystemExit) as exit_:
        output_digests.main([])
    assert exit_.value.code == 2
    assert "one of the arguments --save --compare is required" in capsys.readouterr().err
