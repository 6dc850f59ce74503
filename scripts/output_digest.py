#!/usr/bin/env python3
"""Digest every CLI output of the shipped inputs: exit codes and sha256s.

Runs, in this one process and through ``flocstat.cli.main``:

- ``run``, ``eigen``, ``steady`` and ``check`` on every shipped preset;
- ``steady --grid-n 4001`` on fig2a and fig3a;
- ``run``, ``eigen``, ``steady`` and ``check`` on a short two-species
  configuration, whose run ends in ``extinction-u2,v2`` and whose check
  prints a ray on species 2;
- ``run``, ``eigen``, ``steady`` and ``check`` on a configuration with
  ``power_total`` attachment and detachment, a law no preset uses;
- ``sweep`` over the benchmark's motility configuration, with its values
  in ascending and in descending order, and over the motility preset.

and prints one line per command and per stream or output file::

    <command> | <stream or file> | exit=<code> | <sha256>

The streams are ``stdout``, ``stderr`` and ``verdicts``: stdout with every
number masked, which keeps the verdict words and drops the digits that may
move with the numpy or scipy build.  Every output file is named by its path
below the command's output directory, and that directory is replaced by
``<OUT>`` in both streams before hashing.  The header names the numpy and
scipy versions the digest was made with.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/output_digest.py > tests/output_digest.txt

Two digests made on different commits show by their ``diff`` which outputs
moved.  ``tests/test_output_digest.py`` compares the committed digest with
a fresh one.
"""

from __future__ import annotations

import hashlib
import io
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from flocstat import available_presets
from flocstat.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import MOTILITY_CONFIG, MOTILITY_VALUES  # noqa: E402

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def header() -> str:
    return f"# flocstat output digest: numpy {np.__version__}, scipy {scipy.__version__}"


def commands(config_dir: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every digested command; its configs go to ``config_dir``."""
    out = []
    for preset in available_presets():
        for verb in ("run", "eigen", "steady", "check"):
            out.append((f"{verb} {preset}", [verb, "--preset", preset]))
    for preset in ("fig2a", "fig3a"):
        out.append((f"steady {preset} n=4001",
                    ["steady", "--preset", preset, "--grid-n", "4001"]))
    # two species of distinct diffusivities: the second neither grows nor
    # starts attached, so it washes out, and its yield product above 1
    # violates mass control along the ray u_2 = v_2
    two_species = config_dir / "two_species.ini"
    two_species.write_text("""\
[model]
m = 2
d0 = 0.1
du = 0.1 0.2
dv = 0.15 0.25
yu = 0.5 2
yv = 0.5 1
gamma_s = 1

[kinetics]
f = monod 4 1; zero
g = monod 4 1; zero
alpha = linear_total 0.1
beta = constant 0.1

[initial]
S = 0.5
u = 1; 0.5
v = 1; 0

[controls]
t_end = 3
grid_n = 41
""")
    for verb in ("run", "eigen", "steady", "check"):
        out.append((f"{verb} two_species", [verb, "--config", str(two_species)]))
    for order, values in (("ascending", sorted(MOTILITY_VALUES)),
                          ("descending", sorted(MOTILITY_VALUES, reverse=True))):
        config = config_dir / f"motility_{order}.ini"
        config.write_text(MOTILITY_CONFIG.format(values=" ".join(repr(v) for v in values)))
        out.append((f"sweep motility {order}", ["sweep", "--config", str(config)]))
    out.append(("sweep motility", ["sweep", "--preset", "motility"]))
    power_law = config_dir / "power_law.ini"
    power_law.write_text("""\
[model]
m = 1
d0 = 1
du = 0.2
dv = 1
yu = 0.5
yv = 0.5
gamma_s = 1

[kinetics]
f = monod 4 1
g = monod 5 1
alpha = power_total 0.5 2
beta = power_total 0.2 3

[initial]
S = 0.1
u = 1
v = 1

[controls]
t_end = 3
grid_n = 41
""")
    for verb in ("run", "eigen", "steady", "check"):
        out.append((f"{verb} power_law", [verb, "--config", str(power_law)]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines() -> list[str]:
    """The digest: its header, then its lines in command order."""
    lines = [header()]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, (name, argv) in enumerate(commands(root)):
            out_dir = root / f"out_{i:03d}"
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([*argv, "--out", str(out_dir)])
            streams = {
                label: text.getvalue().replace(str(out_dir.resolve()), "<OUT>")
                .replace(str(root.resolve()), "<TMP>")
                for label, text in (("stdout", stdout), ("stderr", stderr))
            }
            streams["verdicts"] = _NUMBER.sub("#", streams["stdout"])
            entries = [(label, _sha(text.encode())) for label, text in streams.items()]
            if out_dir.is_dir():
                entries += [(path.relative_to(out_dir).as_posix(), _sha(path.read_bytes()))
                            for path in sorted(out_dir.rglob("*")) if path.is_file()]
            lines += [f"{name} | {label} | exit={code} | {sha}" for label, sha in entries]
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
