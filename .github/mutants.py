"""Mutants of mico's file handling that the test suite must kill.

    python .github/mutants.py

Each mutant is one exact text replacement in a file under src/mico, with the
test files that must fail under it. The script first checks that each
mutant's old text occurs exactly once in its file, so a refactor that moves
the text must update this list. It then runs every listed test file once on
an unmutated copy of src/ and tests/, which must pass. Last, for each mutant
it copies src/ and tests/ to a new temporary directory, applies the
replacement there and runs the mutant's test files, stopping at the first
failure. It exits 1 if a check fails, the unmutated run fails, or a
mutant survives. The tree it runs from is never changed.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str        # under src/mico
    old: str
    new: str
    tests: tuple     # files under tests/, one of which must fail


MUTANTS = [
    # data.py
    Mutant("streamed-bag-without-header-check", "data.py",
           "        if (bag.bag_id, bag.shape, bag.label) != (self.bag_id, self._shape, "
           "self.label):\n",
           "        if False:\n",
           ("test_streaming.py",)),
    Mutant("streamed-bag-hands-out-a-copy", "data.py",
           "        return bag.features\n\n    def __repr__",
           "        return bag.features.copy()\n\n    def __repr__",
           ("test_streaming.py",)),
    Mutant("resident-copy-left-writable", "data.py",
           "            bag.features.flags.writeable = False\n",
           "",
           ("test_framing.py",)),
    Mutant("resident-budget-not-reset", "data.py",
           "            budget = -1  # the resident bags are a prefix of the manifest\n",
           "            pass\n",
           ("test_streaming.py",)),
    Mutant("dataset-bags-build-their-metadata", "data.py",
           "    section = r.array if metadata else r.skip\n",
           "    section = r.array\n",
           ("test_streaming.py",)),
    Mutant("dataset-accepts-a-repeated-id", "data.py",
           "        seen.add(bag.bag_id)\n        if bag.features.nbytes <= budget:\n",
           "        if bag.features.nbytes <= budget:\n",
           ("test_data.py",)),
    Mutant("test-sets-may-overlap", "data.py",
           "    if n_folds * n_test > n:\n",
           "    if False:\n",
           ("test_data.py",)),
    # framing.py
    Mutant("take-without-bounds-check", "framing.py",
           "        if n > self._end - off:\n",
           "        if False:\n",
           ("test_framing.py",)),
    Mutant("skip-without-length-check", "framing.py",
           "        self._take(math.prod(shape) * dtype.itemsize, what)\n",
           "        self._off += math.prod(shape) * dtype.itemsize\n",
           ("test_framing.py",)),
    Mutant("read-framed-without-crc-check", "framing.py",
           "    if zlib.crc32(raw) != _RESIDUE:\n",
           "    if False:\n",
           ("test_framing.py",)),
    Mutant("read-framed-without-magic-check", "framing.py",
           "    if not raw.startswith(magic) and not magic.startswith(raw):\n",
           "    if False:\n",
           ("test_framing.py",)),
    Mutant("trailing-bytes-accepted", "framing.py",
           "        if left:\n",
           "        if left < 0:\n",
           ("test_framing.py",)),
    Mutant("open-atomic-writes-in-place", "framing.py",
           '    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")\n'
           '    try:\n        f = open(tmp, mode.replace("w", "x"))\n',
           "    tmp = target\n    try:\n        f = open(tmp, mode)\n",
           ("test_framing.py",)),
]


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def tests_pass(tree: Path, tests) -> bool | None:
    """True when the test files pass against the mico of ``tree``, False
    when one fails (or the run times out), None when pytest could not run
    them at all."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"tests/{t}" for t in tests)]
    try:
        # pyproject's pythonpath puts the copy's src first on the import path
        code = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return False
    # pytest: 0 passed, 1 a test failed, 2 a test module failed to import
    return {0: True, 1: False, 2: False}.get(code)


def main() -> int:
    stale = [m.name for m in MUTANTS
             if (ROOT / "src" / "mico" / m.file).read_text().count(m.old) != 1]
    if stale:
        print(f"old text not found exactly once for: {', '.join(stale)}")
        return 1

    every_test = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        if not tests_pass(Path(tmp), every_test):
            print(f"the unmutated tree fails {' '.join(every_test)}")
            return 1

    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            target = Path(tmp) / "src" / "mico" / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
            passed = tests_pass(Path(tmp), m.tests)
        verdict = {True: "SURVIVED", False: "killed", None: "ERROR"}[passed]
        print(f"{verdict:8s} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        if passed is not False:
            survivors.append(m.name)
    if survivors:
        print(f"not killed: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
