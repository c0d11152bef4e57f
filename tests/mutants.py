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
STEP_ENTRY = "One map step, one class"
FOLD_ENTRY = "One tail rule per map step"
COLD_ENTRY = "A cold ψ search at a lighter fixed cost"
FORKS_ENTRY = "One ψ-search start, one moment-row path, one argparse parser"
CHECKED_ENTRY = "Every law through its checked constructor"
RETIRED_ENTRY = "Two perf paths retired"
UNITS_ENTRY = "The unit laws' ψ records ship with the package"
KINDS_ENTRY = "One kind table for the bounds"
CASES_ENTRY = "One table for the fresh-process CLI checks"
FOLD_ROWS_ENTRY = "Verify in bounded memory"
ONE_FOLD_ENTRY = "One fold for every function kind"


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
    Mutant("distributions.py",  # a square keeps its base's largest alpha
           "max_psi_alpha = property(lambda self: self.base.max_psi_alpha and self.base.max_psi_alpha / 2)",
           "max_psi_alpha = property(lambda self: self.base.max_psi_alpha)",
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
           "_layout(nl, *o) % tuple(texts)",
           "_layout(\"\\n\", *o) % tuple(texts)",
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
    Mutant("distributions.py",  # a tail bound with no outward margin
           "    t = sum(terms) + _TAIL_MARGIN * (1.0 + sum(map(abs, terms)))\n",
           "    t = sum(terms)\n",
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
           "        return (float(np.logaddexp(log_m, math.log(abs(self.offset)))) if self.offset else log_m), d\n",
           "        return log_m, d\n",
           ("tests/test_distributions.py::TestMoments::test_the_rest_of_a_poisson_series_is_bounded",),
           MOMENTS_ENTRY),
    Mutant("distributions.py",  # a square step read as centered whatever c is
           "            if c or max(a.bit_length(), a_den.bit_length()) > _SCALE_BITS:",
           "            if max(a.bit_length(), a_den.bit_length()) > _SCALE_BITS:",
           ("tests/test_distributions.py::TestCanonical::"
            "test_a_square_of_a_shifted_uniform_is_its_own_standard_law",
            "tests/test_orlicz.py::TestStandardForm::test_other_laws_keep_scale_one",
            "tests/test_orlicz.py::TestStandardForm::test_uniforms_keep_the_fraction_walk"),
           WALK_ENTRY),
    Mutant("distributions.py",  # the scale rounded to nearest, below an inexact product
           "    return (x, not over) if over >= 0 else (math.nextafter(x, math.inf), False)\n",
           "    return x, not over\n",
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
    Mutant("distributions.py",  # the square of an interval that holds 0 read from its ends only
           "        return (0.0 if lo < 0 < hi else min(lo * lo, hi * hi)), max(lo * lo, hi * hi)\n",
           "        return min(lo * lo, hi * hi), max(lo * lo, hi * hi)\n",
           ("tests/test_distributions.py::TestSupportInterval::test_square_transform",
            "tests/test_orlicz.py::TestTailBounds::test_the_walked_support_holds_the_image"),
           STEP_ENTRY),
    Mutant("distributions.py",  # a square step's preimages without the negative root
           "for r in {math.sqrt(y), -math.sqrt(y)}]",
           "for r in {math.sqrt(y)}]",
           ("tests/test_distributions.py::TestZeros::test_the_listed_zeros_are_every_zero_of_the_map",),
           STEP_ENTRY),
    Mutant("distributions.py",  # the probabilities summed in their order
           "    total = math.fsum(probs)",
           "    total = np.add.reduce(probs)",
           ("tests/test_distributions.py::TestValidation::test_a_probability_sum_is_checked_in_no_order",),
           STEP_ENTRY),
    Mutant("distributions.py",  # the square rule without its ln(2) / alpha
           "            return _tail_sum((2.0 * t, half), outer_scale, outer_shift, -math.log(p0) / alpha)\n",
           "            return _tail_sum((2.0 * t,), outer_scale, outer_shift, -math.log(p0) / alpha)\n",
           ("tests/test_orlicz.py::TestTailBounds::test_a_tail_bound_covers_every_ratio_past_p0",
            "tests/test_orlicz.py::TestTailBounds::test_a_square_of_a_shifted_chi_reads_its_base_at_2p0"),
           FOLD_ENTRY),
    Mutant("distributions.py",  # the square's base asked at p0, not 2 p0
           "t = tail((best - half - outer_scale) / 2.0, 2.0 * p0, 2 * alpha, log_scale, shift)",
           "t = tail((best - half - outer_scale) / 2.0, p0, 2 * alpha, log_scale, shift)",
           ("tests/test_orlicz.py::TestTailBounds::test_a_square_of_a_shifted_chi_reads_its_base_at_2p0",),
           FOLD_ENTRY),
    Mutant("distributions.py",  # a shift with no Minkowski term
           "    if shift:\n        t = float(np.logaddexp(",
           "    if False:\n        t = float(np.logaddexp(",
           ("tests/test_orlicz.py::TestTailBounds::test_a_shift_adds_its_minkowski_term",),
           FOLD_ENTRY),
    Mutant("distributions.py",  # a chain reads its standard law only where that is Centered
           "                if standard != self.spec and standard.expectation() == 0.0:",
           "                if isinstance(standard, Centered):",
           ("tests/test_distributions.py::TestMoments::test_a_shift_that_cancels_in_floats_reads_the_standard_law",
            "tests/test_cli.py::TestOverflowPaths::test_a_far_shifted_uniform_serves_thm3"),
           FOLD_ENTRY),
    Mutant("distributions.py",  # the scan's last point read as j step + lo, not hi
           "top if i + 1 >= _SCAN - 1 else (i + 1) * d + x for",
           "min(i + 1, _SCAN - 1) * d + x for",
           ("tests/test_distributions.py::TestLiveWindow::test_equals_the_full_scan",
            "tests/test_distributions.py::TestLiveWindow::test_equals_the_full_scan_on_the_p_grid"),
           COLD_ENTRY),
    Mutant("distributions.py",  # the integer walk's shift without c's denominator
           "            c, c_den = c * d + n * c_den, c_den * d\n",
           "            c, c_den = c * d + n, c_den * d\n",
           ("tests/test_orlicz.py::TestStandardForm::test_the_integer_walk_is_the_fraction_walk",),
           COLD_ENTRY),
    Mutant("distributions.py",  # an insert past the bound empties the law memo
           "            for key in old[:len(old) // 2]:\n",
           "            for key in old:\n",
           ("tests/test_distributions.py::TestLawMemo::test_an_insert_past_the_bound_keeps_the_newest_records",
            "tests/test_distributions.py::TestLawMemo::test_live_rows_stay_within_twice_the_bound"),
           COLD_ENTRY),
    Mutant("orlicz.py",         # a square of a Gaussian at alpha = 1 reads the Gaussian's squared MGF
           "(steps[0] if steps else base).max_psi_alpha == 1",
           "base.max_psi_alpha == 1",
           ("tests/test_orlicz.py::TestTailBounds::test_a_squared_gaussian_reads_its_own_mgf_at_alpha_1",),
           FORKS_ENTRY),
    Mutant("distributions.py",  # a batch's new rows stored past _MOMENT_ROWS
           "        if len(rows) + len(missing) <= _MOMENT_ROWS:\n",
           "        if len(missing) <= _MOMENT_ROWS:\n",
           ("tests/test_distributions.py::TestLawMemo::test_a_record_keeps_at_most_the_bound_of_rows",),
           FORKS_ENTRY),
    Mutant("distributions.py",  # a law the constructor refuses raises, not reads None
           "    except SpecError:\n        return None\n",
           "    except ArithmeticError:\n        return None\n",
           ("tests/test_distributions.py::TestCanonical::test_a_refused_affine_fold_keeps_its_step",
            "tests/test_functions.py::TestSampling::test_overflowing_sum_law_keeps_per_coordinate_draws"),
           CHECKED_ENTRY),
    Mutant("cli.py",           # a key's % read as a format mark of its layout
           '_ESCAPE(k).replace("%", "%%")',
           "_ESCAPE(k)",
           ("tests/test_cli.py::TestJsonWriter::test_keys_with_format_marks_and_escapes",),
           RETIRED_ENTRY),
    Mutant("distributions.py",  # an exact subnormal scale kept in the law
           "    if scale == math.inf or scale < sys.float_info.min and not exact:\n",
           "    if not sys.float_info.min <= scale < math.inf:\n",
           ("tests/test_orlicz.py::TestStandardForm::test_exact_subnormal_scales_move_out",
            "tests/test_orlicz.py::TestStandardForm::test_the_integer_walk_is_the_fraction_walk"),
           RETIRED_ENTRY),
    Mutant("entropy.py",        # an identity's overflow left to numpy's warnings
           'np.errstate(over="raise", invalid="raise")',
           "np.errstate()",
           ("tests/test_entropy.py::TestEntropy::test_a_spread_past_the_largest_float",),
           RETIRED_ENTRY),
    Mutant("orlicz.py",         # a subnormal product read to nearest, below the exact one
           "else dist._round_up(\n        *map(math.prod, zip(value.as_integer_ratio(), scale.as_integer_ratio())))[0]",
           "else (lambda n, d: n / d)(\n        *map(math.prod, zip(value.as_integer_ratio(), scale.as_integer_ratio())))",
           ("tests/test_orlicz.py::TestStandardForm::test_a_subnormal_scale_keeps_a_positive_norm",
            "tests/test_orlicz.py::TestStandardForm::test_an_inexact_subnormal_product_rounds_up"),
           CASES_ENTRY),
    Mutant("orlicz.py",         # a shipped upper one float below its live search's
           '"analytic-grid", 0.96788289807657)',
           '"analytic-grid", 0.9678828980765699)',
           ("tests/test_orlicz.py::TestUnitRecords::test_every_shipped_field_is_a_live_search",),
           UNITS_ENTRY),
    Mutant("bounds.py",         # thm2's linear term without its factor 2
           "lambda m, q: 2.0 * E * m)",
           "lambda m, q: E * m)",
           ("tests/test_bounds.py::TestProxyProfile::test_derived",
            "tests/test_bounds.py::TestReads::test_each_kind_s_exponent_keeps_its_bits"),
           KINDS_ENTRY),
    Mutant("bounds.py",         # thm3-psi2-variant's M2 times q, not sqrt(q)
           "2.0 * E * (math.sqrt(q) * m)",
           "2.0 * E * (q * m)",
           ("tests/test_bounds.py::TestReads::test_each_kind_s_exponent_keeps_its_bits",),
           KINDS_ENTRY),
    Mutant("bounds.py",         # ln(x / delta) past the largest float read as inf
           "math.log(x) - math.log(delta)",
           "math.log(x / delta)",
           ("tests/test_cli.py::TestSubnormalDelta::test_invert_reads_a_finite_root",
            "tests/test_cli.py::TestSubnormalDelta::test_the_n_check_reads_the_finite_level"),
           KINDS_ENTRY),
    Mutant("functions.py",      # the fold takes the coordinates in reverse order
           "entries = iter(self._rows())",
           "entries = iter(reversed(list(self._rows())))",
           ("tests/test_sample_pins.py::test_function_streams_are_pinned",),
           FOLD_ROWS_ENTRY),
    Mutant("verify.py",         # the shard budget counts one value per draw, whatever the fold holds
           "size = fspec.work_rows * draws * 8",
           "size = draws * 8",
           ("tests/test_verify.py::TestLimits::test_a_wide_fold_is_refused",
            "tests/test_verify.py::TestLimits::test_a_shard_past_the_budget_is_refused"),
           ONE_FOLD_ENTRY),
    Mutant("functions.py",      # PSA counts each off-diagonal product of S once, not twice
           "else -2.0 * p[a, b] for a, b in self._pairs",
           "else -p[a, b] for a, b in self._pairs",
           ("tests/test_functions.py::TestCoordinateMajorDraws::test_points_and_values_match_old_layout",),
           ONE_FOLD_ENTRY),
    Mutant("functions.py",      # the loss pairs x_i with z_(i-1)
           "    def _term(self, index, rows, total):\n        for w, entry in zip(self.weights, total):\n",
           "    def _term(self, index, rows, total):\n"
           "        z = rows[self.input.dim]\n"
           "        z_last, self.__dict__['_z'] = self.__dict__.get('_z'), z.copy()\n"
           "        if index[0] > 0:\n"
           "            z[...] = z_last\n"
           "        for w, entry in zip(self.weights, total):\n",
           ("tests/test_functions.py::TestCoordinateMajorDraws::test_points_and_values_match_old_layout",
            "tests/test_sample_pins.py::test_function_streams_are_pinned"),
           ONE_FOLD_ENTRY),
    Mutant("functions.py",      # the loss means are estimated while the fold's array is held
           "        _sup_loss_means(self)   # its batch of points, freed before the fold's array is made\n",
           "",
           ("tests/test_cli.py::TestShardBudget::test_the_loss_means_stay_within_the_counted_batch",),
           ONE_FOLD_ENTRY),
    Mutant("verify.py",         # the work budget counts the draws of the run but not the expectation's batch
           "fills = (n_samples + fn._INNER_MC) * per_draw",
           "fills = n_samples * per_draw",
           ("tests/test_verify.py::TestLimits::test_fills_past_the_budget_are_refused",),
           ONE_FOLD_ENTRY),
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
