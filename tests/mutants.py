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
RUNS_ENTRY = "Run-length proxy profiles"
TAIL_ENTRY = "Cold ψ searches end at a certified tail"
MOMENTS_ENTRY = "Cold ψ searches at the cost of their moments"
WALK_ENTRY = "One constructor and one exact walk"


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
    Mutant("bounds.py",         # each run's square times its count, rounded twice
           "math.fsum(math.ldexp(x * x, b) for x, count in zip(entries, counts)\n"
           "                         for b in range(count.bit_length()) if count >> b & 1)",
           "math.fsum(count * (x * x) for x, count in zip(entries, counts))",
           ("tests/test_bounds.py::TestSquares::test_the_exact_sum_rounded_once",
            "tests/test_bounds.py::TestSquares::test_a_run_profile_reads_as_its_expansion"),
           RUNS_ENTRY),
    Mutant("orlicz.py",         # the walked support's ends rounded to nearest only
           "    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)\n",
           "    return lo, hi\n",
           ("tests/test_orlicz.py::TestTailBounds::test_the_walked_support_holds_the_image",),
           TAIL_ENTRY),
    Mutant("orlicz.py",         # a tail bound with no outward margin
           "    return sum(terms) + _TAIL_MARGIN * (1.0 + sum(map(abs, terms)))\n",
           "    return sum(terms)\n",
           ("tests/test_orlicz.py::TestTailBounds::test_a_support_bound_rounds_outward",),
           TAIL_ENTRY),
    Mutant("distributions.py",  # the rest's ratio without the power d
           "    r = np.exp(qs * (d * math.log1p(1.0 / (n + 1)))) * (lam / (n + 1))\n",
           "    r = np.exp(qs * math.log1p(1.0 / (n + 1))) * (lam / (n + 1))\n",
           ("tests/test_distributions.py::TestMoments::test_the_rest_of_a_poisson_series_is_bounded",),
           MOMENTS_ENTRY),
    Mutant("distributions.py",  # the rest as its first term, without 1 / (1 - r)
           "    return np.where(r < 1.0, head - np.log1p(-r), math.inf)",
           "    return np.where(r < 1.0, head, math.inf)",
           ("tests/test_distributions.py::TestMoments::test_the_rest_of_a_poisson_series_is_bounded",),
           MOMENTS_ENTRY),
    Mutant("distributions.py",  # a shift step adds nothing to M
           "            log_m = float(np.logaddexp(log_m, math.log(abs(c))))\n",
           "            pass\n",
           ("tests/test_distributions.py::TestMoments::test_the_rest_of_a_poisson_series_is_bounded",),
           MOMENTS_ENTRY),
    Mutant("distributions.py",  # the window scan's ends pass always skipped
           "            if (c[:, :, None] == read_cells[:, None, :]).any(axis=2).all():\n",
           "            if True:\n",
           ("tests/test_distributions.py::TestLiveWindow::test_equals_the_full_scan",
            "tests/test_distributions.py::TestLiveWindow::test_equals_the_full_scan_on_the_p_grid"),
           MOMENTS_ENTRY),
    Mutant("distributions.py",  # a square step read as centered whatever c is
           "        elif c or max(a.numerator.bit_length(), a.denominator.bit_length()) > _SCALE_BITS:",
           "        elif max(a.numerator.bit_length(), a.denominator.bit_length()) > _SCALE_BITS:",
           ("tests/test_distributions.py::TestCanonical::"
            "test_a_square_of_a_shifted_uniform_is_its_own_standard_law",
            "tests/test_orlicz.py::TestStandardForm::test_other_laws_keep_scale_one",
            "tests/test_orlicz.py::TestStandardForm::test_uniforms_keep_the_fraction_walk"),
           WALK_ENTRY),
    Mutant("distributions.py",  # the scale rounded to nearest, below an inexact product
           "    return x if x >= exact else math.nextafter(x, math.inf)\n",
           "    return x\n",
           ("tests/test_distributions.py::TestRoundUp::test_inexact_product_and_sum_round_up",
            "tests/test_orlicz.py::TestStandardForm::test_inexact_scales_round_up"),
           WALK_ENTRY),
    Mutant("distributions.py",  # no probability sum checked, on built, merged or derived laws
           "            raise SpecError(f\"probs must be nonnegative, got {self.probs}\")\n"
           "        _check_total(self.probs)\n",
           "            raise SpecError(f\"probs must be nonnegative, got {self.probs}\")\n",
           ("tests/test_distributions.py::TestValidation::test_bad_probs",
            "tests/test_distributions.py::TestFoldedLaws::test_a_merge_whose_probs_leave_one_is_refused"),
           WALK_ENTRY),
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
