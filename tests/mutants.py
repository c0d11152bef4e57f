"""The committed mutation table: each row is a defect that named tests must
catch, so a refactor that leaves a test blind to its defect shows up.

A row is (file under src/lighttails, old text, new text, test node ids,
the CHANGES.md entry it comes from).  `tests/test_mutants.py` checks the
table alone in tier-1: each old text occurs exactly once in its file and
each node id names a test that exists.

    python tests/mutants.py [ROW ...]

runs the rows (all, or those whose 0-based index is given) on a temporary
copy of src/: it runs the union of the node ids on the unmutated copy,
which must pass, then each row's node ids on a copy with that row applied,
which must fail.  Exit status 0 when every row is caught.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PSI_ENTRY = "Every ψ search ends at a certified tail or a proof"
WARM_ENTRY = "A warm request at the cost of its numbers"


class Mutant(NamedTuple):
    file: str       # under src/lighttails
    old: str
    new: str
    tests: tuple    # node ids, from the repository root
    source: str     # the CHANGES.md entry, by the start of its title


MUTANTS = (
    Mutant("orlicz.py",
           "tail(best, _P_MAX) if t is None else t",
           "tail(best, 8.0) if t is None else t",
           ("tests/test_orlicz.py::TestChordSearch::test_sharp_interior_maximum_converges",
            "tests/test_orlicz.py::TestChordSearch::"
            "test_a_rise_on_the_last_grid_interval_stays_under_the_tail",
            "tests/test_orlicz.py::TestColdCorpus::test_maxima_at_one_keep_their_bits",
            "tests/test_orlicz.py::TestCertificate::"
            "test_a_centered_chi_squared_1_is_certified_past_p_max"),
           PSI_ENTRY),
    Mutant("orlicz.py",
           "log_gamma, log_p0 = math.lgamma(p0 / a + 1.0) / p0, -math.log(p0) / alpha",
           "log_gamma, log_p0 = 0.0, -math.log(p0) / alpha",
           ("tests/test_orlicz.py::TestTailBounds::test_a_tail_bound_covers_every_ratio_past_p0",
            "tests/test_orlicz.py::TestCertificate::"
            "test_a_centered_chi_psi2_norm_is_set_by_its_tail_bound"),
           PSI_ENTRY),
    Mutant("orlicz.py",
           "if top is not None and top / 2 ** len(squares) < alpha:",
           "if top is not None and top < alpha:",
           ("tests/test_orlicz.py::TestDivergence::test_the_proof_names_the_law_and_the_ratio_grows",
            "tests/test_orlicz.py::TestColdCorpus::test_every_refusal_is_decided"),
           PSI_ENTRY),
    Mutant("functions.py",
           "return norm(spec, alpha).proxy_value",
           "return norm(spec, alpha).value",
           ("tests/test_cli.py::TestBoundsReadOnlyTheirEntries::"
            "test_a_psi_kind_reads_the_upper_of_a_tail_bound",),
           PSI_ENTRY),
    Mutant("applications.py",
           "vals = [d.proxy_value if isinstance(d, OrliczEstimate)",
           "vals = [d.value if isinstance(d, OrliczEstimate)",
           ("tests/test_applications.py::TestMetricTail::"
            "test_a_diameter_set_by_its_tail_bound_reads_its_upper",),
           PSI_ENTRY),
    Mutant("cli.py",           # the float memo keys 0.0 and -0.0 as one
           "    if x:\n        floats[x] = text\n",
           "    floats[x] = text\n",
           ("tests/test_cli.py::TestJsonWriter::test_zero_and_negative_zero_keep_their_texts",),
           WARM_ENTRY),
    Mutant("cli.py",           # no branch for a step that underflows to 0
           "(i / div * delta if step == 0 else i * step) + lo",
           "i * step + lo",
           ("tests/test_cli.py::TestTGrid::test_the_grid_is_np_linspace_s_bit_for_bit",
            "tests/test_cli.py::TestTGrid::test_edges"),
           WARM_ENTRY),
    Mutant("cli.py",           # no universal-newline translation
           '        text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")\n',
           "        pass\n",
           ("tests/test_cli.py::TestSpecLoading::test_a_spec_file_reads_as_its_lf_twin",),
           WARM_ENTRY),
    Mutant("cli.py",           # the payload spliced in at the first null value
           """'"spec_payload": null', '"spec_payload": ' + payload_text, 1)""",
           "'null', payload_text, 1)",
           ("tests/test_cli.py::TestDigestStability::"
            "test_a_path_holding_the_payload_key_digests_the_whole_config",
            "tests/test_cli.py::TestDigestStability::test_digest_is_of_the_config_encoded_whole"),
           WARM_ENTRY),
    Mutant("cli.py",           # the layout memo keyed without the indent
           "    shape = (nl, *o)\n",
           "    shape = tuple(o)\n",
           ("tests/test_cli.py::TestJsonWriter::test_one_shape_at_two_depths_keeps_each_indent",),
           WARM_ENTRY),
)


def _pytest(src, tests):
    """pytest's exit status on tests, with the package imported from src."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv):
    rows = [MUTANTS[int(i)] for i in argv] if argv else list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="lighttails-mutants-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        start = time.perf_counter()
        tests = sorted({t for row in rows for t in row.tests})
        if _pytest(src, tests) != 0:
            print("the unmutated copy fails the rows' tests")
            return 1
        print(f"unmutated copy: {len(tests)} node ids pass ({time.perf_counter() - start:.1f} s)")
        survivors = 0
        for row in rows:
            path = os.path.join(src, "lighttails", row.file)
            with open(path) as fh:
                text = fh.read()
            if text.count(row.old) != 1:
                print(f"{row.file}: {row.old!r} does not occur exactly once")
                return 1
            with open(path, "w") as fh:
                fh.write(text.replace(row.old, row.new))
            start = time.perf_counter()
            code = _pytest(src, row.tests)
            with open(path, "w") as fh:
                fh.write(text)
            verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
            survivors += code != 1
            print(f"{verdict}: {row.file}: {row.new.strip()!r} "
                  f"({time.perf_counter() - start:.1f} s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
