"""Every figure preset writes the rows pinned in data/preset_digests.json.

For each of the preset files the JSON holds the sha256 of its analytic and
asymptotic rows at the stock inputs and of its Monte Carlo rows at a small
fixed SimConfig (2 000 draws in 700-draw chunks), with a short digest of
every row, so a mismatch names the first row that moved. A change that
moves rows on purpose rewrites the file with

    PYTHONPATH=src python tests/test_preset_digests.py

and says which rows moved and why, as for golden_sweep.csv.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from rscache.sweep import METHOD_MC, figure_presets, run_sweeps

DIGESTS = Path(__file__).parent / "data" / "preset_digests.json"
SMALL = {"samples": 2_000, "chunk": 700}
#: hex characters kept of each row's sha256: enough to find a moved row
ROW_DIGEST = 8


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _by_kind(rows: list[str]) -> dict[str, list[str]]:
    """The analytic (and asymptotic) rows and the Monte Carlo rows, in order."""
    kinds: dict[str, list[str]] = {"analytic": [], "monte-carlo": []}
    for row in rows:
        kinds["monte-carlo" if row.split(",")[7] == METHOD_MC else "analytic"].append(row)
    return kinds


def _digests(kinds: dict[str, list[str]]) -> dict[str, dict]:
    return {
        kind: {"sha256": _sha256("\n".join(kept)), "rows": " ".join(_sha256(r)[:ROW_DIGEST] for r in kept)}
        for kind, kept in kinds.items()
    }


def preset_rows(out_dir: Path) -> dict[str, list[str]]:
    """Every preset file's data rows at the small SimConfig, by file name."""
    files = {}
    for entries in figure_presets().values():
        pairs = [
            (dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, **SMALL)), out_dir / name)
            for name, spec in entries
        ]
        run_sweeps([(spec, str(path)) for spec, path in pairs])
        for name, _ in entries:
            files[name] = (out_dir / name).read_text(encoding="ascii").splitlines()[1:]
    return files


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, list[str]]:
    return preset_rows(tmp_path_factory.mktemp("presets"))


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text())


NAMES = sorted(name for entries in figure_presets().values() for name, _ in entries)


def test_the_pinned_files_are_the_presets_files(pinned):
    assert sorted(pinned) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_preset_file_writes_its_pinned_rows(name, written, pinned):
    kinds = _by_kind(written[name])
    for kind, got in _digests(kinds).items():
        want = pinned[name][kind]
        if got["sha256"] == want["sha256"]:
            continue
        old = want["rows"].split()
        for index, (new, was) in enumerate(zip(got["rows"].split(), old)):
            assert new == was, f"{name}: {kind} row {index} moved, now {kinds[kind][index]}"
        pytest.fail(f"{name}: {len(old)} {kind} rows pinned, {len(kinds[kind])} written")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = preset_rows(Path(tmp))
    DIGESTS.write_text(
        json.dumps({name: _digests(_by_kind(rows[name])) for name in sorted(rows)}, indent=1) + "\n"
    )
