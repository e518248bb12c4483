"""A catalogue of mutants of ``src/``, each with the tests that should kill it.

Each entry names a file, an exact text that occurs once in ``src/`` and the
text that replaces it, and either the test node ids that should fail on the
mutant or the reason why no test can tell it apart (``equivalent``). Run

    python tests/mutants.py [--only NAME]

to apply each mutant to a copy of the repository in a temporary directory
and run only its tests there. Each line reads killed (a listed test failed),
survived (all passed) or error (pytest could not run them), with the time
taken; the exit status is 1 unless every non-equivalent mutant is killed.
``tests/test_mutants.py`` checks that every old text still occurs exactly
once in ``src/``. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...] = ()
    equivalent: str | None = None  # why no test can tell the mutant apart


PROPERTY = "tests/test_cli.py::TestWriteBundle::test_results_json_is_json_dumps_of_the_bundle"
DIFFERENTIAL = "tests/test_reference.py::test_engine_run_equals_reference_run"
COLUMN_REFERENCE = "tests/test_data.py::TestLoadCsv::test_a_reference_that_is_no_column"
CHECKED_LOOP = "tests/test_data.py::TestLoadCsv::test_load_matches_the_checked_loop"
PURITY_TIES = "tests/test_cli.py::TestPurity::test_window_and_entry_tie_rules"
PURITY_RULE = "tests/test_cli.py::TestPurity::test_matches_the_documented_rule"
WARM_UP = "tests/test_engine.py::TestWarmUp::"
SORTED_INDEX = "tests/test_pool.py::TestSortedIndex::test_nearest_is_the_scan_first_min"
LONG_INDEX = ("tests/test_data.py::TestLoadCsv::"
              "test_an_index_past_the_digit_limit_reads_as_a_short_one")
SETTING_REFUSED = "tests/test_settings.py::test_a_wrong_value_is_refused_naming_its_field"
CEP_RANGES = "tests/test_pool.py::TestConfigValidation::test_rejects_out_of_range"
SIGNATURES = "tests/test_engine.py::TestSignatures::"
GLOBAL_UPDATE = "tests/test_gene.py::TestGlobalUpdate::"
PARAMETER_BUFFER = ("tests/test_forecasters.py::TestParameterBuffer::"
                    "test_a_clone_owns_its_buffer_and_trains_like_a_fresh_model")
SPARE_REUSE = ("tests/test_pool.py::TestEvolve::"
               "test_a_split_after_a_removal_takes_the_removed_forecaster")
LINEAR_STEP = ("tests/test_forecasters.py::TestContract::"
               "test_linear_update_matches_the_written_out_step")
MLP_STEP = "tests/test_forecasters.py::TestContract::test_mlp_update_matches_the_written_out_step"
ANY_SHAPE_STEP = ("tests/test_forecasters.py::TestContract::"
                  "test_the_fused_update_is_the_written_out_step_at_any_shape")
DELAYED_FEEDBACK = ("tests/test_engine.py::TestDelayedFeedback::"
                    "test_a_record_reads_no_point_after_its_truth")

# the warm step's lines, moved or dropped by the warm-up's mutants
WARM_STEP = (
    "            try:\n"
    "                train_step(series[t:t + lookback], series[t + lookback:t + span], lr_raw)\n"
    "                absorb_instance(entry, mu, sigma)\n"
    "            except NumericError as exc:\n"
    "                raise NumericError(f\"{exc} at t={t} in warm-up epoch {epoch}\") from exc\n")
WARM_COUNT = "            entry.n_pred += 1  # a lone entry never idles: the serve clock need not move\n"

MUTANTS = (
    Mutant("record-template-fields-swapped", "src/driftpool/manifest.py",
           '"gene_mu": %r,\n      "gene_sigma": %r,', '"gene_sigma": %r,\n      "gene_mu": %r,',
           tests=("tests/test_golden.py::test_default_stream_linear_digest", PROPERTY)),
    Mutant("record-forecast-line-indent", "src/driftpool/manifest.py",
           """},\\n      ' if "forecast" in r""", """},\\n    ' if "forecast" in r""",
           tests=("tests/test_golden.py::test_logged_forecasts_digest", PROPERTY)),
    Mutant("record-evolved-from-abandoned", "src/driftpool/manifest.py",
           '"true" if evolved else "false"', '"true" if abandoned else "false"',
           tests=("tests/test_golden.py::test_default_stream_linear_digest", PROPERTY)),
    Mutant("instances-row-flags-swapped", "src/driftpool/manifest.py",
           "(t, eid, err, evolved, abandoned, size)", "(t, eid, err, abandoned, evolved, size)",
           tests=("tests/test_golden.py::test_default_stream_linear_digest", PROPERTY)),
    Mutant("trajectories-row-mu-and-sigma-swapped", "src/driftpool/manifest.py",
           "(t, eid, mu, sigma)", "(t, eid, sigma, mu)",
           tests=("tests/test_golden.py::test_default_stream_linear_digest", PROPERTY)),
    Mutant("record-pool-size-as-str", "src/driftpool/manifest.py",
           '"pool_size": %d,', '"pool_size": %s,',
           equivalent="a record's pool_size is an exact Python int, whose str is its %d"),
    Mutant("read-json-recursion-error-dropped", "src/driftpool/manifest.py",
           "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
           tests=("tests/test_cli.py::TestMainExitCodes::test_deeply_nested_json_exits_2",)),
    Mutant("open-text-newline-untranslated", "src/driftpool/data.py",
           "newline: str | None = None", 'newline: str | None = ""',
           tests=("tests/test_cli.py::TestManifest::test_line_ends_read_as_newlines",)),
    Mutant("open-text-utf-8-sig-reverted", "src/driftpool/data.py",
           'encoding="utf-8-sig"', 'encoding="utf-8"',
           tests=("tests/test_cli.py::TestConfigFile::test_a_byte_order_mark_is_dropped",
                  "tests/test_data.py::TestLoadCsv::test_byte_order_mark_is_dropped")),
    # a column reference is parsed once; a synthetic stream must be finite
    Mutant("column-index-isdigit", "src/driftpool/data.py",
           'column.removeprefix("-").isdecimal()', 'column.removeprefix("-").isdigit()',
           tests=(COLUMN_REFERENCE,)),  # "²" reaches int() and reads as an index past its limit
    Mutant("column-index-lstrip", "src/driftpool/data.py",
           'column.removeprefix("-").isdecimal()', 'column.lstrip("-").isdecimal()',
           tests=(COLUMN_REFERENCE,)),  # "--1" likewise
    Mutant("column-index-past-the-digit-limit-is-no-index", "src/driftpool/data.py",
           'index = _LongIndex(-sys.maxsize if column[0] == "-" else sys.maxsize)\n'
           "        index.text = column\n",
           "index = None\n",
           tests=(COLUMN_REFERENCE, LONG_INDEX)),
    Mutant("column-index-past-the-digit-limit-unsigned", "src/driftpool/data.py",
           '_LongIndex(-sys.maxsize if column[0] == "-" else sys.maxsize)',
           "_LongIndex(sys.maxsize)",
           tests=(LONG_INDEX,)),
    Mutant("column-index-negative-in-header", "src/driftpool/data.py",
           "if index is not None and 0 <= index < len(header):",
           "if index is not None and index < len(header):",
           tests=(COLUMN_REFERENCE,)),
    Mutant("available-lists-11-names", "src/driftpool/data.py",
           "map(_shown, header[:10])", "map(_shown, header[:11])",
           tests=("tests/test_data.py::TestLoadCsv::test_missing_column_names_available",)),
    Mutant("generate-finiteness-check-dropped", "src/driftpool/data.py",
           "    if len(bad):\n        raise NumericError(",
           "    if False:\n        raise NumericError(",
           tests=("tests/test_data.py::TestGenerate::test_an_overflowing_stream_is_refused",
                  "tests/test_cli.py::TestMainExitCodes::"
                  "test_an_overflowing_synthetic_stream_exits_3")),
    # pool entries that cache their mixed signature
    Mutant("absorb-without-refresh", "src/driftpool/pool.py",
           "    entry.local_sigma = blend(tau_l, sigma, entry.local_sigma)\n"
           "    entry._refresh()",
           "    entry.local_sigma = blend(tau_l, sigma, entry.local_sigma)",
           tests=("tests/test_pool.py::TestAbsorbInstance::test_hand_computed_first_absorption",
                  DIFFERENTIAL)),
    Mutant("nearest-ties-to-largest-id", "src/driftpool/pool.py",
           "(cost == best and entry.id < best_id)", "(cost == best and entry.id > best_id)",
           tests=("tests/test_pool.py::TestNearest::test_ties_go_to_the_smallest_id",
                  "tests/test_pool.py::TestNearest::test_tie_breaks_to_smaller_id")),
    Mutant("absorb-ema-weight-swapped", "src/driftpool/pool.py",
           "entry.local_mu = blend(tau_l, mu, entry.local_mu)",
           "entry.local_mu = blend(tau_l, entry.local_mu, mu)",
           tests=("tests/test_pool.py::TestAbsorbInstance::test_hand_computed_first_absorption",
                  DIFFERENTIAL)),
    Mutant("nlls-finiteness-check-dropped", "src/driftpool/gene.py",
           "        if not math.isfinite(cost):\n"
           "            raise NumericError(f\"non-finite likelihood",
           "        if False:\n            raise NumericError(f\"non-finite likelihood",
           tests=("tests/test_pool.py::TestNearest::test_nan_signature_raises_numeric_error",)),
    # the engine's lifecycle, against the reference run in tests/reference.py
    Mutant("online-step-skips-lr-tick", "src/driftpool/engine.py",
           "            lr_tick(current, pool.lr_raw)\n", "",
           tests=(DIFFERENTIAL,)),
    Mutant("fifo-evicts-second-oldest", "src/driftpool/pool.py",
           "oldest = self.entries.pop(0)", "oldest = self.entries.pop(1)",
           tests=("tests/test_pool.py::TestEvolve::test_fifo_cap_evicts_oldest", DIFFERENTIAL)),
    Mutant("abandoned-step-absorbs", "src/driftpool/engine.py",
           "            absorb_instance(current, mu, sigma)\n",
           "        absorb_instance(current, mu, sigma)\n",
           tests=("tests/test_engine.py::TestOnlineStep::"
                  "test_abandoned_step_changes_nothing_but_counters", DIFFERENTIAL)),
    Mutant("abandonment-reads-the-next-truth", "src/driftpool/engine.py",
           "should_evolve(current, online.y_mu[i])",
           "should_evolve(current, online.y_mu[min(i + 1, len(online) - 1)])",
           tests=(DELAYED_FEEDBACK,)),
    Mutant("input-window-signed-one-past-its-end", "src/driftpool/engine.py",
           "window_genes(series, starts, lookback, scope)",
           "window_genes(series, starts + 1, lookback, scope)",
           tests=(DELAYED_FEEDBACK,)),
    Mutant("stale-at-the-boundary", "src/driftpool/pool.py",
           "served - e.last_served > tau_e * e.n_pred",
           "served - e.last_served >= tau_e * e.n_pred",
           tests=("tests/test_pool.py::TestEliminateStale::test_keeps_at_boundary",)),
    # thresholds and finiteness checks on float signatures
    Mutant("should-evolve-at-the-threshold", "src/driftpool/pool.py",
           "return abs(mu - entry.mu) > config.tau_mu",
           "return abs(mu - entry.mu) >= config.tau_mu",
           tests=("tests/test_pool.py::TestShouldEvolve::test_holds_inside_threshold",)),
    Mutant("csv-default-16-digits", "src/driftpool/data.py",
           'fmt: str = "%.17g"', 'fmt: str = "%.16g"',
           tests=("tests/test_data.py::TestLoadCsv::test_round_trip_is_exact",
                  "tests/test_golden.py::test_generate_digest")),
    Mutant("mse-finiteness-check-dropped", "src/driftpool/forecasters.py",
           "    if not math.isfinite(err):\n        raise NumericError(\"non-finite mse\")",
           "    if False:\n        raise NumericError(\"non-finite mse\")",
           tests=("tests/test_cli.py::TestMainExitCodes::"
                  "test_numeric_failure_prints_only_its_error_line",)),
    # the bulk CSV parse, which hands every fault to the checked loop
    Mutant("plain-column-non-finite-kept", "src/driftpool/data.py",
           "return values if np.isfinite(values).all() else None", "return values",
           tests=("tests/test_data.py::TestLoadCsv::test_non_finite_value_rejected",)),
    Mutant("plain-column-field-limit-unchecked", "src/driftpool/data.py",
           "if len(text) > limit and max(map(len, lines)) > limit:", "if False:",
           tests=(CHECKED_LOOP,)),  # a long cell of digits that reads as finite
    Mutant("plain-column-quotes-split", "src/driftpool/data.py",
           """ or '"' in text or""", " or",
           tests=(CHECKED_LOOP,)),
    Mutant("plain-column-cr-split", "src/driftpool/data.py",
           ' or "\\r" in text:', ":",
           tests=(CHECKED_LOOP,)),
    Mutant("plain-column-comma-free-index-unchecked", "src/driftpool/data.py",
           "    elif col_idx != 0:\n        return None\n", "",
           tests=(CHECKED_LOOP,)),
    Mutant("plain-column-final-line-kept", "src/driftpool/data.py",
           "        lines.pop()  # the final line end", "        pass",
           tests=("tests/test_data.py::TestLoadCsv::test_plain_text_is_parsed_in_bulk",)),
    # compare names each manifest's row once
    # main alone returns success; purity's one label rule
    Mutant("main-success-unreturned", "src/driftpool/cli.py", "    return EXIT_OK\n", "",
           tests=("tests/test_cli.py::TestMainExitCodes::test_ok",
                  "tests/test_cli.py::TestMainExitCodes::test_non_integer_labels")),
    Mutant("purity-label-bound-inclusive", "src/driftpool/cli.py",
           "np.abs(values) >= 2.0**53", "np.abs(values) > 2.0**53",
           tests=("tests/test_cli.py::TestMainExitCodes::test_labels_below_two_to_the_53",)),
    Mutant("compare-names-zipped-loosely", "src/driftpool/cli.py",
           "zip(names, manifests, series, strict=True)", "zip(names, manifests, series)",
           tests=("tests/test_cli.py::TestCmdCompare::test_one_name_per_manifest",)),
    # purity's documented tie and safety rules
    Mutant("purity-entry-tie-to-largest-label", "src/driftpool/cli.py",
           "key=lambda kv: (-kv[1], kv[0])", "key=lambda kv: (-kv[1], -kv[0])",
           tests=(PURITY_TIES,)),
    Mutant("purity-strict-majority-window", "src/driftpool/cli.py",
           "if len(top) > 1 and top[0][1] == top[1][1]:", "if top[0][1] * 2 <= len(window):",
           tests=(PURITY_TIES,)),
    Mutant("purity-safety-period-one-short", "src/driftpool/cli.py",
           "serves[entry] <= tau_safe", "serves[entry] < tau_safe",
           tests=(PURITY_RULE,)),
    Mutant("purity-records-unsorted", "src/driftpool/cli.py",
           'for rec in sorted(records, key=lambda r: r["t"]):', "for rec in records:",
           tests=(PURITY_RULE,)),
    # the warm-up's one loop: each step trains, absorbs its window, then counts
    Mutant("warm-up-fold-before-training", "src/driftpool/engine.py",
           "                train_step(series[t:t + lookback], series[t + lookback:t + span], "
           "lr_raw)\n"
           "                absorb_instance(entry, mu, sigma)\n",
           "                absorb_instance(entry, mu, sigma)\n"
           "                train_step(series[t:t + lookback], series[t + lookback:t + span], "
           "lr_raw)\n",
           tests=(WARM_UP + "test_a_training_failure_wins_on_the_fold_failures_step",)),
    Mutant("warm-up-fold-outside-try", "src/driftpool/engine.py",
           "                absorb_instance(entry, mu, sigma)\n"
           "            except NumericError as exc:\n"
           "                raise NumericError(f\"{exc} at t={t} in warm-up epoch {epoch}\") "
           "from exc\n",
           "            except NumericError as exc:\n"
           "                raise NumericError(f\"{exc} at t={t} in warm-up epoch {epoch}\") "
           "from exc\n"
           "            absorb_instance(entry, mu, sigma)\n",
           tests=(WARM_UP + "test_raises_the_first_failing_step",)),
    Mutant("warm-up-count-not-advanced", "src/driftpool/engine.py", WARM_COUNT, "",
           tests=(WARM_UP + "test_fold_equals_absorbing_step_by_step",)),
    Mutant("warm-up-prediction-counted-before-training", "src/driftpool/engine.py",
           WARM_STEP + WARM_COUNT, WARM_COUNT + WARM_STEP,
           tests=(WARM_UP + "test_a_failed_warm_up_keeps_every_step_before_the_failure",)),
    # an online step's error names its step
    Mutant("online-step-error-not-re-raised-with-t", "src/driftpool/engine.py",
           'raise NumericError(f"{exc} at t={t}") from exc', "raise",
           tests=("tests/test_cli.py::TestMainExitCodes::"
                  "test_numeric_failure_prints_only_its_error_line",)),
    # absorb_instance leaves the entry unchanged when the global moments overflow
    Mutant("absorb-local-update-before-overflow-check", "src/driftpool/pool.py",
           "    entry.global_mu, entry.global_sigma = fold_moments(\n"
           "        entry.global_mu, entry.global_sigma, entry.n, mu)\n"
           "    entry.n += 1\n"
           "    entry.local_mu = blend(tau_l, mu, entry.local_mu)\n"
           "    entry.local_sigma = blend(tau_l, sigma, entry.local_sigma)\n",
           "    entry.local_mu = blend(tau_l, mu, entry.local_mu)\n"
           "    entry.local_sigma = blend(tau_l, sigma, entry.local_sigma)\n"
           "    entry.global_mu, entry.global_sigma = fold_moments(\n"
           "        entry.global_mu, entry.global_sigma, entry.n, mu)\n"
           "    entry.n += 1\n",
           tests=("tests/test_pool.py::TestAbsorbInstance::"
                  "test_overflow_raises_the_reference_error_and_keeps_the_genes",)),
    # the sorted-index walk of Pool.nearest
    Mutant("nearest-prunes-at-the-best-cost", "src/driftpool/pool.py",
           "if abs(d) > best:", "if abs(d) >= best:",
           tests=(SORTED_INDEX,)),
    Mutant("nearest-tie-keeps-the-first-found", "src/driftpool/pool.py",
           "if cost < best or (cost == best and entry.id < best_id):", "if cost < best:",
           tests=(SORTED_INDEX,)),
    Mutant("nearest-walks-right-first-on-a-tie", "src/driftpool/pool.py",
           "mu - means[lo] <= means[hi] - mu", "mu - means[lo] < means[hi] - mu",
           equivalent="both sides of a distance tie are scored, since hypot(d, s) >= |d| keeps "
                      "the best cost at or above the tied distance, and the smaller-id rule "
                      "then picks the same entry in either order"),
    Mutant("nearest-signed-prune", "src/driftpool/pool.py",
           "if abs(d) > best:", "if d > best:",
           equivalent="d = mu - means[k] is the distance on the left and <= 0 on the right, so "
                      "the walk only stops later; each extra entry it scores costs at least its "
                      "distance, which is past the best cost"),
    # the one parameter buffer and its fused update
    Mutant("forecaster-without-deepcopy-hook", "src/driftpool/forecasters.py",
           "    def __deepcopy__(self, memo)", "    def _deepcopy_unused(self, memo)",
           tests=(PARAMETER_BUFFER,)),
    Mutant("forecaster-clone-bound-to-the-parent-buffer", "src/driftpool/forecasters.py",
           "clone._lay_out(self._theta.copy(), **self._layout)",
           "clone._lay_out(self._theta, **self._layout)",
           tests=(PARAMETER_BUFFER,)),
    # a split reuses a removed entry's forecaster
    Mutant("spare-parameters-not-copied", "src/driftpool/forecasters.py",
           "        np.copyto(spare._theta, self._theta)\n", "",
           tests=("tests/test_golden.py::test_c11_mlp_digest", SPARE_REUSE,
                  "tests/test_forecasters.py::TestParameterBuffer::"
                  "test_a_spare_takes_the_parameters_and_trains_like_a_fresh_clone")),
    Mutant("removed-entry-keeps-its-forecaster", "src/driftpool/pool.py",
           "            entry.forecaster = None\n", "",
           tests=(SPARE_REUSE,)),
    Mutant("fifo-eviction-spares-the-child", "src/driftpool/pool.py",
           "            self._retire([oldest])\n",
           "            self._retire([oldest])\n            self._spares[-1] = child.forecaster\n",
           tests=(SPARE_REUSE,)),
    Mutant("forecaster-gradient-laid-over-the-parameters", "src/driftpool/forecasters.py",
           "shapes, theta, np.zeros(theta.size)", "shapes, theta, theta",
           tests=(PARAMETER_BUFFER, LINEAR_STEP)),
    Mutant("forecaster-lr-only-negative-refused", "src/driftpool/forecasters.py",
           "if not 0 <= lr < math.inf:", "if lr < 0:",
           tests=("tests/test_forecasters.py::TestTrainStep::"
                  "test_a_negative_or_non_finite_lr_is_refused",)),
    Mutant("forecaster-lr-and-scale-two-multiplies", "src/driftpool/forecasters.py",
           "np.multiply(g, lr * self._lr_scale, out=g)",
           "np.multiply(g, lr, out=g)\n        np.multiply(g, self._lr_scale, out=g)",
           tests=(LINEAR_STEP, ANY_SHAPE_STEP)),
    Mutant("mlp-d-pred-by-a-reciprocal", "src/driftpool/forecasters.py",
           "np.divide(2.0 * err, self.horizon, out=g_b2)",
           "np.multiply(err, 2.0 / self.horizon, out=g_b2)",
           tests=(MLP_STEP, ANY_SHAPE_STEP)),
    # the BLAS kernels: gemv for each matrix-vector product, a k=1 gemm for each outer one
    Mutant("linear-forward-on-the-reversed-window", "src/driftpool/forecasters.py",
           "self.weights.dot(x)", "self.weights.dot(x[::-1])",
           tests=("tests/test_forecasters.py::TestPredict::test_constructed_selector_weights",
                  LINEAR_STEP)),
    Mutant("linear-gradient-rows-reversed", "src/driftpool/forecasters.py",
           "np.dot(err[:, None], x[None, :], out=g_weights)",
           "np.dot(err[::-1, None], x[None, :], out=g_weights)",
           tests=(LINEAR_STEP, ANY_SHAPE_STEP)),
    Mutant("mlp-w1-gradient-on-the-reversed-window", "src/driftpool/forecasters.py",
           "np.dot(g_b1[:, None], x[None, :], out=g_w1)",
           "np.dot(g_b1[:, None], x[None, ::-1], out=g_w1)",
           tests=(MLP_STEP, ANY_SHAPE_STEP, "tests/test_forecasters.py::TestGradientCheck::"
                                            "test_matches_central_differences")),
    Mutant("mlp-d-pre-through-the-reversed-w2", "src/driftpool/forecasters.py",
           "g_b2.dot(self.w2)", "g_b2.dot(self.w2[::-1])",
           tests=(MLP_STEP, ANY_SHAPE_STEP)),
    Mutant("parameters-laid-out-at-negative-zero", "src/driftpool/forecasters.py",
           "np.zeros(sum(map(math.prod, shapes.values())))",
           "-np.zeros(sum(map(math.prod, shapes.values())))",
           tests=("tests/test_forecasters.py::TestZeroSign::"
                  "test_package_built_parameters_hold_no_negative_zero",)),
    # the one settings checker (errors.py)
    Mutant("check-value-int-for-float-unbounded", "src/driftpool/errors.py",
           "ok = abs(value) <= sys.float_info.max", "ok = True",
           tests=(SETTING_REFUSED,)),
    Mutant("check-value-bool-for-any-kind", "src/driftpool/errors.py",
           "ok = kind is bool", "ok = True",
           tests=(SETTING_REFUSED,)),
    Mutant("check-value-open-low-end-closed", "src/driftpool/errors.py",
           "else (low < value))", "else (low <= value))",
           tests=(SETTING_REFUSED, CEP_RANGES)),
    Mutant("check-value-open-high-end-closed", "src/driftpool/errors.py",
           "else (value < high))", "else (value <= high))",
           tests=(SETTING_REFUSED, CEP_RANGES)),
    Mutant("check-value-finite-bound-unnamed", "src/driftpool/errors.py",
           'if domain else "finite"', 'if domain else ""',
           tests=("tests/test_settings.py::test_a_value_that_used_to_slip_through",)),
    Mutant("check-fields-domain-dropped", "src/driftpool/errors.py",
           '*types[f.name], f.metadata.get("domain"))', "*types[f.name])",
           tests=(CEP_RANGES, "tests/test_engine.py::TestInstances::test_config_validation")),
    Mutant("within-domain-undeclared", "src/driftpool/errors.py",
           'metadata={"domain": domain}', "metadata={}",
           tests=(CEP_RANGES, "tests/test_settings.py::test_every_setting_declares_its_domain")),
    Mutant("field-types-generic-kept", "src/driftpool/errors.py",
           "        if isinstance(kind, type):\n", "        if True:\n",
           tests=("tests/test_settings.py::test_a_generic_field_is_left_to_its_class",)),
    Mutant("field-types-optional-unread", "src/driftpool/errors.py",
           "optional = type(None) in typing.get_args(hint)", "optional = False",
           tests=("tests/test_settings.py::test_a_generic_field_is_left_to_its_class",
                  "tests/test_settings.py::test_every_setting_declares_its_domain")),
    # signatures and their streaming updates (gene.py)
    Mutant("reject-non-finite-window-one-short", "src/driftpool/gene.py",
           "hit = bad[starts + offset + length]", "hit = bad[starts + offset + length - 1]",
           tests=(SIGNATURES + "test_non_finite_inside_covered_windows_raises",)),
    Mutant("window-genes-tail-at-the-window-start", "src/driftpool/gene.py",
           "first = starts + (offset + length - tail)", "first = starts + offset",
           tests=(SIGNATURES + "test_pass_equals_compute_gene",
                  SIGNATURES + "test_real_chunk_boundary")),
    Mutant("window-genes-sigma-unchecked", "src/driftpool/gene.py",
           "else np.isfinite(mu) & np.isfinite(sigma)", "else np.isfinite(mu)",
           tests=(SIGNATURES + "test_overflowing_signature_raises_naming_its_window",)),
    Mutant("window-genes-truth-std-computed", "src/driftpool/engine.py",
           "stds=False)[0].tolist()", "stds=True)[0].tolist()",
           tests=(SIGNATURES + "test_a_truth_is_signed_for_its_mean_only",)),
    Mutant("compute-gene-head-of-the-window", "src/driftpool/gene.py",
           "tail = arr[-scope:]", "tail = arr[:scope]",
           tests=("tests/test_gene.py::TestComputeGene::test_scope_takes_most_recent_values",
                  SIGNATURES + "test_pass_equals_compute_gene")),
    Mutant("blend-weights-swapped", "src/driftpool/gene.py",
           "return w * a + (1.0 - w) * b", "return w * b + (1.0 - w) * a",
           tests=("tests/test_gene.py::TestEmaUpdate::test_direct_substitution",
                  "tests/test_gene.py::TestMixGene::test_extremes")),
    Mutant("fold-moments-spread-term-unsquared", "src/driftpool/gene.py",
           "(n / (n + 1) ** 2)", "(n / (n + 1))",
           tests=(GLOBAL_UPDATE + "test_two_value_batch",
                  GLOBAL_UPDATE + "test_online_equals_batch")),
    Mutant("fold-moments-overflow-uncaught", "src/driftpool/gene.py",
           "    except OverflowError:\n        new_var = math.inf",
           "    except ZeroDivisionError:\n        new_var = math.inf",
           tests=(GLOBAL_UPDATE + "test_overflowing_moments_raise_numeric_error",)),
    Mutant("tau-e-infinity-accepted", "src/driftpool/pool.py",
           'tau_e: float = within("(0, inf)", 1.5)', 'tau_e: float = within("(0, inf]", 1.5)',
           tests=("tests/test_pool.py::TestConfigValidation::test_rejects_out_of_range",
                  "tests/test_cli.py::TestMainExitCodes::test_an_infinite_threshold_exits_2")),
)

_NOT_COPIED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                     ".perfbench_work", "__pycache__")


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(killed, survived or error; pytest's last line) of the mutant's tests."""
    with tempfile.TemporaryDirectory(prefix="driftpool-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", f"the old text does not occur exactly once in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [proc.stderr.strip()])[-1]
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), last


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS],
                        help="run this mutant alone")
    args = parser.parse_args(argv)
    start, tally = time.perf_counter(), {}
    for mutant in MUTANTS:
        if args.only not in (None, mutant.name):
            continue
        if mutant.equivalent:
            status, detail, secs = "equivalent", mutant.equivalent, 0.0
        else:
            began = time.perf_counter()
            status, detail = run_mutant(mutant)
            secs = time.perf_counter() - began
        tally[status] = tally.get(status, 0) + 1
        print(f"{status:<10} {mutant.name:<36} {secs:5.1f} s  {detail}", flush=True)
    counts = ", ".join(f"{n} {status}" for status, n in sorted(tally.items()))
    print(f"{counts} in {time.perf_counter() - start:.1f} s")
    return 0 if set(tally) <= {"killed", "equivalent"} else 1


if __name__ == "__main__":
    sys.exit(main())
