"""Run each catalogued mutant of src/ against tier-1 and report killed or survived.

    python3 tools/mutants.py

Each row of MUTANTS names one text edit of one file under src/: the old text,
which must occur exactly once, and the new text that replaces it.  A row
brings back a bug that was fixed, or breaks a seam that a test pins.  The
committed tree (``git archive HEAD``) is unpacked once for the unmutated
baseline and once per row, and tier-1 runs there with ``-x``, after the golden
corpus alone, JOBS copies at a time, each run cut after TIMEOUT seconds.  A
mutant is killed when a run fails or times out.  Prints one line per row,
with the first failing test of a killed mutant.  Exits 1 if the baseline
fails, if a row's old text is not found exactly once, if a mutant survives
that is not marked equivalent, or if one marked equivalent is killed; an
equivalent row says in its reason why no input can tell it apart.

A bugfix adds the row that brings its bug back.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2
TIMEOUT = 900
# tarfile's extraction filters came in 3.12 and in 3.10 and 3.11 bugfix releases
EXTRACT = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
# run before tier-1: it alone kills the seam mutants, and tier-1 reaches it
# only after most of its files
GOLDEN = [*TIER1, "tests/test_cli_golden.py"]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = [
    # seams that a golden case pins
    Mutant("wrap-pm-pi-seam", "src/spinphase/_angles.py",
           "    elif r <= -math.pi:", "    elif r < -math.pi:",
           "an echo on the branch seam reports -pi, outside (-pi, pi]"),
    Mutant("holonomy-circular-distance", "src/spinphase/cli.py",
           "min(deviation, TWO_PI - deviation)", "min(deviation, TWO_PI + deviation)",
           "a transport just below 2*pi reads a deviation of about 2*pi from its analytic 2*pi"),
    Mutant("phase-unreduced", "src/spinphase/cli.py",
           '"gamma_mod_2pi": mod_two_pi(gamma),', '"gamma_mod_2pi": gamma,',
           "phase reports gamma_mod_2pi 2*pi for a full DOWN turn, not 0"),
    Mutant("echo-total-sign", "src/spinphase/cli.py",
           '"total": geometric + dynamical,', '"total": geometric - dynamical,',
           "echo reports the difference of its two parts as their total"),
    # the reduction into [0, 2*pi) and the raw closed forms
    Mutant("mod-two-pi-negative-zero", "src/spinphase/_angles.py",
           "    return r + 0.0  # -0.0 becomes +0.0", "    return r  # -0.0 becomes +0.0",
           "a reduced -0.0 stays -0.0"),
    Mutant("mod-two-pi-endpoint", "src/spinphase/_angles.py",
           "    if r >= TWO_PI:", "    if r > TWO_PI:",
           "fmod(-tiny) + 2*pi rounds to 2*pi, the excluded endpoint"),
    Mutant("analytic-phase-reduced", "src/spinphase/phases.py",
           "    return math.pi * _solid_angle_factor(orientation, theta)",
           "    return mod_two_pi(math.pi * _solid_angle_factor(orientation, theta))",
           "the full solid angle reads 0, not the raw 2*pi"),
    Mutant("spinor-holonomy-unreduced", "src/spinphase/phases.py",
           "mod_two_pi(-math.fsum(_overlap_phases(c, s, segments)))",
           "-math.fsum(_overlap_phases(c, s, segments))",
           "a transport's phase leaves [0, 2*pi)"),
    # fixed bugs
    Mutant("geometric-phase-range", "src/spinphase/phases.py",
           "        if not 0.0 <= value < TWO_PI:\n"
           '            raise DomainError("phase must be in [0, 2*pi)")\n', "",
           "a GeometricPhase outside [0, 2*pi) is built"),
    Mutant("rgflow-overflow", "src/spinphase/phases.py",
           "    if mu == math.inf:", "    if False:",
           "an rgflow whose flow overflows to +inf is no longer a domain error"),
    Mutant("orientation-read-as-down", "src/spinphase/phases.py",
           "    if orientation is Orientation.DOWN:\n        return -1.0\n"
           "    raise _not_an_orientation(orientation)",
           "    return -1.0",
           "any orientation other than UP is read as DOWN"),
    Mutant("circuit-file-not-utf8", "src/spinphase/cli.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except OSError as exc:",
           "a circuit file that is not UTF-8 is a traceback, not a domain error"),
    Mutant("check-real-huge-int", "src/spinphase/_angles.py",
           "        try:\n            finite = math.isfinite(value)\n"
           "        except OverflowError:  # an int too large for a float\n"
           "            finite = False\n",
           "        finite = math.isfinite(value)\n",
           "an int too large for a float raises OverflowError, not 'must be finite'"),
    Mutant("concurrence-not-renormalized", "src/spinphase/entangle.py",
           '    a00, a01, a10, a11 = unit_vector([a00, a01, a10, a11], "coefficients")\n', "",
           "the concurrence skips the re-normalization of its amplitudes"),
    Mutant("sweep-overflowing-span", "src/spinphase/cli.py",
           "        if math.isinf(float(stop) - float(start)):", "        if False:",
           "a sweep whose stop - start overflows runs nan and inf grid points"),
    # equivalent: no input can tell these apart
    Mutant("entropy-endpoint-equality", "src/spinphase/entangle.py",
           "    if x >= 1.0:", "    if x == 1.0:",
           "x = (1 + sqrt(1 - C^2))/2 with 1 - C^2 <= 1, so x <= 1 and >= is ==",
           equivalent=True),
]


def committed_tree() -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"], capture_output=True,
                          check=True).stdout


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def run(tree: bytes, mutant: Mutant | None) -> tuple[str, str, float]:
    """(outcome, detail, seconds): outcome is passed, failed, timeout or stale."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree)) as archive:
            archive.extractall(tmp, **EXTRACT)
        if mutant is not None:
            path = Path(tmp) / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                return "stale", f"old text found {count} times in {mutant.file}", 0.0
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        for command in (GOLDEN, TIER1):
            try:
                proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True,
                                      text=True, timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                return "timeout", f"cut after {TIMEOUT} s", time.perf_counter() - start
            if proc.returncode != 0:
                return "failed", first_failure(proc.stdout), time.perf_counter() - start
        return "passed", "", time.perf_counter() - start


def main() -> None:
    if len(sys.argv) != 1:
        raise SystemExit("usage: " + __doc__.split("\n\n")[1].strip())
    tree = committed_tree()
    with ThreadPoolExecutor(JOBS) as pool:
        baseline = pool.submit(run, tree, None)
        results = pool.map(lambda mutant: run(tree, mutant), MUTANTS)
        bad = 0
        for mutant, (outcome, detail, seconds) in zip(MUTANTS, results):
            if outcome == "stale":
                verdict, ok = "stale", False
            elif outcome == "passed":
                verdict, ok = "survived", mutant.equivalent
            else:  # an equivalent row that is killed is not equivalent
                verdict, ok = "killed", not mutant.equivalent
            tag = " (equivalent)" if mutant.equivalent else ""
            print(f"{verdict:8} {mutant.name}{tag} [{seconds:.0f} s] {detail or mutant.reason}",
                  flush=True)
            bad += not ok
        outcome, detail, seconds = baseline.result()
    print(f"baseline {outcome} [{seconds:.0f} s] {detail}".rstrip())
    print(f"{len(MUTANTS)} mutants, {bad} not as catalogued")
    raise SystemExit(1 if bad or outcome != "passed" else 0)


if __name__ == "__main__":
    main()
