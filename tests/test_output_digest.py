"""The committed output digest matches the outputs of this tree.

``scripts/output_digest.py`` hashes every stream and file of the CLI on the
shipped inputs; ``tests/output_digest.txt`` is its output at the last
program change.  With the numpy and scipy versions named in its header the
digest must match byte for byte.  With other versions only the exit codes
and the verdict lines (stdout with every number masked) must match.  A
mismatch names the ``<command> | <stream>`` keys whose lines moved.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tests" / "output_digest.txt"


def _digest_script():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved(committed, fresh):
    """The ``<command> | <stream>`` keys whose lines differ, in digest order."""
    old, new = ({" | ".join(line.split(" | ")[:2]): line for line in lines}
                for lines in (committed, fresh))
    return [key for key in {**old, **new} if old.get(key) != new.get(key)]


def test_outputs_match_committed_digest():
    committed = DIGEST.read_text().splitlines()
    fresh = _digest_script().digest_lines()
    if fresh[0] != committed[0]:  # another numpy or scipy
        committed, fresh = ([line for line in lines if " | verdicts | " in line]
                            for lines in (committed, fresh))
    assert fresh == committed, "moved: " + ", ".join(_moved(committed, fresh))
