"""CLI behavior: outputs, formats, file IO, and the one-line error contract."""

import argparse
import ast
import json
import math
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import freechaos
from freechaos import GridKernel, errors, partitions, save_kernel, theorems
from freechaos.chaos import ENGINES
from freechaos.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nc_count_text(capsys):
    code, out, err = run(capsys, "nc", "--n", "4")
    assert code == 0 and err == ""
    assert out == "14 non-crossing of 15 total\n"


def test_nc_count_json(capsys):
    code, out, _ = run(capsys, "nc", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "noncrossing": 14, "total": 15}


def test_nc_listing_includes_partitions(capsys):
    code, out, _ = run(capsys, "nc", "--n", "3", "--list", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and len(payload["partitions"]) == 5
    assert [[1, 2, 3]] in payload["partitions"]


def test_nc_classes_text(capsys):
    code, out, _ = run(capsys, "nc", "--classes", "--m", "2", "--q", "2")
    assert code == 0
    assert out == "(m=2, q=2): 1 pairings, 0 with blocks > 2, 1 with blocks >= 2\n"


def test_nc_classes_json_listing(capsys):
    code, out, _ = run(capsys, "nc", "--classes", "--m", "2", "--q", "2", "--list", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["classes"]["pairings"] == [[[1, 4], [2, 3]]]


def test_nc_requires_arguments(capsys):
    code, out, err = run(capsys, "nc")
    assert code == 2 and out == ""
    assert err.startswith("error:usage:") and err.count("\n") == 1


def test_nc_classes_requires_m_and_q(capsys):
    code, _, err = run(capsys, "nc", "--classes", "--m", "3")
    assert code == 2 and err.startswith("error:usage:")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("nc", "--n", "4", "--list"), "nc --list needs --format json"),
        (("nc", "--classes", "--m", "3", "--q", "2", "--list"), "nc --list needs --format json"),
        (("nc", "--classes", "--m", "3", "--q", "2", "--n", "4"), "nc --classes reads --m and --q, not --n"),
        (("nc", "--n", "4", "--m", "3"), "nc reads --m and --q only with --classes"),
        (("nc", "--n", "4", "--q", "2"), "nc reads --m and --q only with --classes"),
    ],
    ids=" ".join,
)
def test_nc_refuses_flags_it_would_not_use(capsys, argv, line):
    # the text format used to build a listing and print only the counts
    assert run(capsys, *argv) == (2, "", f"error:usage: {line}\n")


def test_nc_text_listing_is_refused_before_enumerating(capsys):
    # enumerating [14] took about 12 s and 811 MiB, for a listing text never printed
    tracemalloc.start()
    try:
        result = run(capsys, "nc", "--n", "14", "--list")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (2, "", "error:usage: nc --list needs --format json\n")
    assert peak < 1 << 20


def test_nc_size_guard(capsys):
    code, _, err = run(capsys, "nc", "--n", "18")
    assert code == 1 and err.startswith("error:size-limit:")


def test_nc_count_refuses_fifteen(capsys, monkeypatch):
    def boom(n, q, singletons, crossing, sink):
        raise AssertionError(f"enumerated [{n}] past the guard")

    monkeypatch.setattr(partitions, "_staircase_blocks", boom)
    code, out, err = run(capsys, "nc", "--n", "15")
    assert code == 1 and out == "" and err.startswith("error:size-limit:")


def test_nc_counts_build_no_partitions(capsys, monkeypatch):
    def boom(n, *args, **kwargs):
        raise AssertionError(f"built partitions of [{n}] only to count them")

    monkeypatch.setattr(partitions, "_staircase_blocks", boom)
    counts = []
    for n in ("9", "14"):
        code, out, err = run(capsys, "nc", "--n", n, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        counts.append((payload["n"], payload["noncrossing"], payload["total"]))
    assert counts == [(9, 4862, 21147), (14, 2674440, 190899322)]
    code, out, err = run(capsys, "nc", "--n", "0")
    assert code == 1 and out == ""
    assert err == "error:domain: enumerate_nc needs 1 <= n <= 14, got 0\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (("nc", "--n", "0"), "enumerate_nc needs 1 <= n <= 14, got 0"),
        (("riordan", "--m", "0"), "riordan needs 1 <= m <= 16, got 0"),
        (("converge", "--family", "indicator", "--steps", "0"),
         "convergence_experiment needs 1 <= steps <= 50, got 0"),
    ],
    ids=["nc --n 0", "riordan --m 0", "converge --steps 0"],
)
def test_a_size_below_the_range_is_one_domain_line(capsys, argv, line):
    # no cap is reached below the range, so it is no size limit
    assert run(capsys, *argv) == (1, "", f"error:domain: {line}\n")


def test_riordan_text(capsys):
    code, out, _ = run(capsys, "riordan", "--m", "4")
    assert code == 0
    assert out == "R_{4,1}=1 R_{4,2}=2 R_4=3\n"


def test_riordan_json(capsys):
    code, out, _ = run(capsys, "riordan", "--m", "6", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"m": 6, "counts": {"1": 1, "2": 9, "3": 5}, "total": 15}


def test_moments_indicator_diagram(capsys):
    code, out, _ = run(capsys, "moments", "--m", "3", "--bins", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "diagram" and payload["m"] == 3
    assert payload["value_re"] == 8.0 and payload["oracle"] == 8.0
    assert payload["delta"] == 0.0


def test_moments_all_methods(capsys):
    code, out, _ = run(capsys, "moments", "--m", "4", "--bins", "4", "--method", "all")
    payload = json.loads(out)
    assert code == 0 and [r["method"] for r in payload] == ["product", "diagram", "trace"]
    assert all(abs(r["delta"]) <= 1e-9 for r in payload)


def test_moments_all_methods_past_the_full_power_table(capsys):
    # x^5 at q=2 on 4 bins would need a 4^10-entry table, past the 10^6 cap;
    # the product engine's half powers stay below it
    args = ("moments", "--method", "all", "--family", "random", "--q", "2", "--bins", "4", "--m", "5")
    code, out, err = run(capsys, *args, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert [r["method"] for r in payload] == ["product", "diagram", "trace"]
    values = [complex(r["value_re"], r["value_im"]) for r in payload]
    assert all(abs(v - values[0]) <= 1e-9 * max(1.0, abs(values[0])) for v in values)


def test_moments_all_runs_every_engine_of_its_measure(capsys):
    args = ("moments", "--method", "all", "--family", "random", "--q", "2", "--bins", "3", "--m", "4")
    for measure, methods in [("poisson", ["product", "diagram", "trace"]), ("wigner", ["product", "diagram"])]:
        code, out, err = run(capsys, *args, "--measure", measure)
        payload = json.loads(out)
        assert (code, err) == (0, "") and [r["method"] for r in payload] == methods, measure
        values = [complex(r["value_re"], r["value_im"]) for r in payload]
        assert all(abs(v - values[0]) <= 1e-9 * max(1.0, abs(values[0])) for v in values)


def test_moments_first_moment_by_every_method(capsys):
    args = ("moments", "--m", "1", "--family", "random", "--q", "2", "--bins", "3")
    for method, measure, count in [("all", "poisson", 3), ("all", "wigner", 2), ("trace", "poisson", 1)]:
        code, out, err = run(capsys, *args, "--method", method, "--measure", measure)
        payload = json.loads(out)
        reports = payload if isinstance(payload, list) else [payload]
        assert (code, err, len(reports)) == (0, "", count), (method, measure)
        assert all(r["value_re"] == r["value_im"] == r["oracle"] == 0.0 for r in reports)


def test_moments_csv_format(capsys):
    code, out, _ = run(capsys, "moments", "--m", "2", "--bins", "3", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 2
    header = lines[0].split(",")
    assert "method" in header and "value_re" in header and "oracle" in header


def test_moments_random_family_deterministic(capsys):
    args = ("moments", "--m", "4", "--family", "random", "--q", "2", "--bins", "3", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert abs(json.loads(out1)["delta"]) > 0  # random kernels are not indicators


def test_moments_trace_wigner_is_domain_error(capsys):
    code, _, err = run(capsys, "moments", "--m", "2", "--method", "trace", "--measure", "wigner")
    assert code == 1 and err.startswith("error:domain:")


def test_moments_size_guard(capsys):
    code, _, err = run(capsys, "moments", "--m", "99")
    assert code == 1 and err.startswith("error:size-limit:")
    assert err.count("\n") == 1


def test_identity_indicator_json(capsys):
    code, out, _ = run(capsys, "identity", "--bins", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["lambda"] == 8.0 and payload["lhs"] == pytest.approx(128.0)
    assert abs(payload["delta"]) <= 1e-9 * 128.0
    assert "star_1_minus_f" in payload["terms"]


def test_identity_csv_flattens_terms(capsys):
    code, out, _ = run(capsys, "identity", "--family", "random", "--q", "2", "--bins", "3", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 2
    header = lines[0].split(",")
    assert "lhs" in header and "arc_1_minus_f" in header and "star_2" in header


def test_converge_perturbed_csv(capsys):
    code, out, _ = run(capsys, "converge", "--family", "perturbed-indicator", "--steps", "4", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 5
    assert lines[0].startswith("step,lambda,statistic,target,delta")


def test_converge_indicator_json(capsys):
    code, out, _ = run(capsys, "converge", "--family", "indicator", "--steps", "2", "--bins", "3")
    payload = json.loads(out)
    assert code == 0 and payload["converged"] is True
    assert payload["final_statistic_gap"] == 0.0
    assert len(payload["records"]) == 2


def test_converge_hyperdiagonal(capsys):
    code, out, _ = run(
        capsys, "converge", "--family", "hyperdiagonal", "--steps", "3",
        "--q", "2", "--bins", "4", "--cell-width", "0.25",
    )
    payload = json.loads(out)
    assert code == 0 and payload["q"] == 2
    assert payload["records"][0]["lambda"] == pytest.approx(1.0)


def test_converge_json_is_byte_stable(capsys):
    args = ("converge", "--family", "perturbed-indicator", "--steps", "3", "--seed", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_transfer_unit_rate(capsys):
    code, out, _ = run(capsys, "transfer", "--M", "6", "--bins", "1")
    payload = json.loads(out)
    assert code == 0 and payload["lambda"] == 1.0
    assert [r["poisson"] for r in payload["rows"]] == pytest.approx([0, 1, 1, 3, 6, 15], abs=1e-12)
    assert [r["wigner"] for r in payload["rows"]] == pytest.approx([0, 1, 0, 2, 0, 5], abs=1e-12)


def test_transfer_csv(capsys):
    code, out, _ = run(capsys, "transfer", "--M", "3", "--bins", "2", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 4
    assert lines[0] == "m,poisson,wigner,poisson_oracle,wigner_oracle,poisson_gap,wigner_gap"


# Parent-commit stdout of runs whose values are integers or short binary
# fractions, so the bytes do not depend on the platform's float formatting.
FROZEN_CSV = {
    ("transfer", "--M", "4", "--bins", "1"): (
        "m,poisson,wigner,poisson_oracle,wigner_oracle,poisson_gap,wigner_gap\n"
        "1,0,0,0,0,0,0\n"
        "2,1,1,1,1,0,0\n"
        "3,1,0,1,0,0,0\n"
        "4,3,2,3,2,0,0\n"
    ),
    ("converge", "--family", "indicator", "--steps", "2", "--bins", "2"): (
        "step,lambda,statistic,target,delta,star_1_minus_f\n"
        "1,2,6,6,0,0\n"
        "2,2,6,6,0,0\n"
    ),
    ("identity", "--bins", "2"): (
        "q,lambda,lhs,rhs,delta,star_1_minus_f\n"
        "1,2,8,8,0,0\n"
    ),
    ("converge", "--family", "hyperdiagonal", "--bins", "1", "--steps", "2"): (
        "step,lambda,statistic,target,delta,arc_1_minus_f,star_1,star_2\n"
        "1,1,3,1,2,0,1,1\n"
        "2,0.5,0.625,0,0.625,0.125,0.25,0.25\n"
    ),
}


@pytest.mark.parametrize("argv", list(FROZEN_CSV), ids=" ".join)
def test_csv_bytes_are_frozen(capsys, argv):
    assert run(capsys, *argv, "--format", "csv") == (0, FROZEN_CSV[argv], "")


# Parent-commit stdout of integer-valued JSON runs, taken before every report
# shared one to_dict.
FROZEN_JSON = {
    ("moments", "--method", "all", "--m", "4", "--bins", "8"): (
        '[\n'
        '  {\n'
        '    "delta": 0.0,\n'
        '    "lambda": 8.0,\n'
        '    "m": 4,\n'
        '    "method": "product",\n'
        '    "oracle": 136.0,\n'
        '    "q": 1,\n'
        '    "value_im": 0.0,\n'
        '    "value_re": 136.0\n'
        '  },\n'
        '  {\n'
        '    "delta": 0.0,\n'
        '    "lambda": 8.0,\n'
        '    "m": 4,\n'
        '    "method": "diagram",\n'
        '    "oracle": 136.0,\n'
        '    "q": 1,\n'
        '    "value_im": 0.0,\n'
        '    "value_re": 136.0\n'
        '  },\n'
        '  {\n'
        '    "delta": 0.0,\n'
        '    "lambda": 8.0,\n'
        '    "m": 4,\n'
        '    "method": "trace",\n'
        '    "oracle": 136.0,\n'
        '    "q": 1,\n'
        '    "value_im": 0.0,\n'
        '    "value_re": 136.0\n'
        '  }\n'
        ']\n'
    ),
    ("identity", "--bins", "2"): (
        '{\n'
        '  "delta": 0.0,\n'
        '  "lambda": 2.0,\n'
        '  "lhs": 8.0,\n'
        '  "q": 1,\n'
        '  "rhs": 8.0,\n'
        '  "terms": {\n'
        '    "star_1_minus_f": 0.0\n'
        '  }\n'
        '}\n'
    ),
    ("transfer", "--M", "4", "--bins", "1"): (
        '{\n'
        '  "lambda": 1.0,\n'
        '  "q": 1,\n'
        '  "rows": [\n'
        '    {\n'
        '      "m": 1,\n'
        '      "poisson": 0.0,\n'
        '      "poisson_gap": 0.0,\n'
        '      "poisson_oracle": 0.0,\n'
        '      "wigner": 0.0,\n'
        '      "wigner_gap": 0.0,\n'
        '      "wigner_oracle": 0.0\n'
        '    },\n'
        '    {\n'
        '      "m": 2,\n'
        '      "poisson": 1.0,\n'
        '      "poisson_gap": 0.0,\n'
        '      "poisson_oracle": 1.0,\n'
        '      "wigner": 1.0,\n'
        '      "wigner_gap": 0.0,\n'
        '      "wigner_oracle": 1.0\n'
        '    },\n'
        '    {\n'
        '      "m": 3,\n'
        '      "poisson": 1.0,\n'
        '      "poisson_gap": 0.0,\n'
        '      "poisson_oracle": 1.0,\n'
        '      "wigner": 0.0,\n'
        '      "wigner_gap": 0.0,\n'
        '      "wigner_oracle": 0.0\n'
        '    },\n'
        '    {\n'
        '      "m": 4,\n'
        '      "poisson": 3.0,\n'
        '      "poisson_gap": 0.0,\n'
        '      "poisson_oracle": 3.0,\n'
        '      "wigner": 2.0,\n'
        '      "wigner_gap": 0.0,\n'
        '      "wigner_oracle": 2.0\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    ("converge", "--family", "indicator", "--steps", "2", "--bins", "2"): (
        '{\n'
        '  "converged": true,\n'
        '  "family": "indicator",\n'
        '  "final_moment_gap": 0.0,\n'
        '  "final_statistic_gap": 0.0,\n'
        '  "gap_threshold": 0.01,\n'
        '  "moment_order": 5,\n'
        '  "q": 1,\n'
        '  "records": [\n'
        '    {\n'
        '      "delta": 0.0,\n'
        '      "lambda": 2.0,\n'
        '      "moment_gap": 0.0,\n'
        '      "statistic": 6.0,\n'
        '      "step": 1,\n'
        '      "target": 6.0,\n'
        '      "terms": {\n'
        '        "star_1_minus_f": 0.0\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "delta": 0.0,\n'
        '      "lambda": 2.0,\n'
        '      "moment_gap": 0.0,\n'
        '      "statistic": 6.0,\n'
        '      "step": 2,\n'
        '      "target": 6.0,\n'
        '      "terms": {\n'
        '        "star_1_minus_f": 0.0\n'
        '      }\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
}
# Parent-commit stdout of two listings, taken before both non-crossing
# families came from one staircase generator. They pin the listing order; the
# literals are written out in the CLI's JSON layout, which the entries above
# pin byte for byte.
FROZEN_JSON[("nc", "--n", "5", "--list")] = json.dumps(
    {
        "n": 5,
        "noncrossing": 42,
        "total": 52,
        "partitions": [
            [[1], [2], [3], [4], [5]], [[1], [2], [3], [4, 5]], [[1], [2], [3, 5], [4]],
            [[1], [2, 5], [3], [4]], [[1, 5], [2], [3], [4]], [[1], [2], [3, 4], [5]],
            [[1], [2], [3, 4, 5]], [[1], [2, 5], [3, 4]], [[1, 5], [2], [3, 4]],
            [[1], [2, 4], [3], [5]], [[1], [2, 4, 5], [3]], [[1, 5], [2, 4], [3]],
            [[1, 4], [2], [3], [5]], [[1, 4, 5], [2], [3]], [[1], [2, 3], [4], [5]],
            [[1], [2, 3], [4, 5]], [[1], [2, 3, 5], [4]], [[1, 5], [2, 3], [4]],
            [[1], [2, 3, 4], [5]], [[1], [2, 3, 4, 5]], [[1, 5], [2, 3, 4]],
            [[1, 4], [2, 3], [5]], [[1, 4, 5], [2, 3]], [[1, 3], [2], [4], [5]],
            [[1, 3], [2], [4, 5]], [[1, 3, 5], [2], [4]], [[1, 3, 4], [2], [5]],
            [[1, 3, 4, 5], [2]], [[1, 2], [3], [4], [5]], [[1, 2], [3], [4, 5]],
            [[1, 2], [3, 5], [4]], [[1, 2, 5], [3], [4]], [[1, 2], [3, 4], [5]],
            [[1, 2], [3, 4, 5]], [[1, 2, 5], [3, 4]], [[1, 2, 4], [3], [5]],
            [[1, 2, 4, 5], [3]], [[1, 2, 3], [4], [5]], [[1, 2, 3], [4, 5]],
            [[1, 2, 3, 5], [4]], [[1, 2, 3, 4], [5]], [[1, 2, 3, 4, 5]],
        ],
    },
    indent=2,
    sort_keys=True,
) + "\n"
FROZEN_JSON[("nc", "--classes", "--m", "3", "--q", "2", "--list")] = json.dumps(
    {
        "m": 3,
        "q": 2,
        "pairings": 1,
        "blocks_gt2": 0,
        "blocks_ge2": 1,
        "classes": {
            "pairings": [[[1, 6], [2, 3], [4, 5]]],
            "blocks_gt2": [],
            "blocks_ge2": [[[1, 6], [2, 3], [4, 5]]],
        },
    },
    indent=2,
    sort_keys=True,
) + "\n"


@pytest.mark.parametrize("argv", list(FROZEN_JSON), ids=" ".join)
def test_json_bytes_are_frozen(capsys, argv):
    assert run(capsys, *argv, "--format", "json") == (0, FROZEN_JSON[argv], "")


# One run per subcommand, with the parent-commit stdout of each format it
# prints, the default first. Every other --format value is a usage error.
MOMENTS_ALL = ("moments", "--method", "all", "--m", "4", "--bins", "8")
IDENTITY = ("identity", "--bins", "2")
CONVERGE = ("converge", "--family", "indicator", "--steps", "2", "--bins", "2")
TRANSFER = ("transfer", "--M", "4", "--bins", "1")
PRINTED_FORMATS = {
    ("nc", "--n", "4"): {
        "text": "14 non-crossing of 15 total\n",
        "json": '{\n  "n": 4,\n  "noncrossing": 14,\n  "total": 15\n}\n',
    },
    ("riordan", "--m", "4"): {
        "text": "R_{4,1}=1 R_{4,2}=2 R_4=3\n",
        "json": '{\n  "counts": {\n    "1": 1,\n    "2": 2\n  },\n  "m": 4,\n  "total": 3\n}\n',
    },
    MOMENTS_ALL: {
        "json": FROZEN_JSON[MOMENTS_ALL],
        "csv": (
            "q,m,lambda,method,value_re,value_im,oracle,delta\n"
            "1,4,8,product,136,0,136,0\n"
            "1,4,8,diagram,136,0,136,0\n"
            "1,4,8,trace,136,0,136,0\n"
        ),
    },
    IDENTITY: {"json": FROZEN_JSON[IDENTITY], "csv": FROZEN_CSV[IDENTITY]},
    CONVERGE: {"json": FROZEN_JSON[CONVERGE], "csv": FROZEN_CSV[CONVERGE]},
    TRANSFER: {"json": FROZEN_JSON[TRANSFER], "csv": FROZEN_CSV[TRANSFER]},
}


@pytest.mark.parametrize(
    "argv, fmt",
    [(argv, fmt) for argv in PRINTED_FORMATS for fmt in ("text", "json", "csv")],
    ids=lambda x: x if isinstance(x, str) else x[0],
)
def test_each_subcommand_accepts_only_the_formats_it_prints(capsys, argv, fmt):
    printed = PRINTED_FORMATS[argv]
    result = run(capsys, *argv, "--format", fmt)
    if fmt in printed:
        assert result == (0, printed[fmt], "")
        if fmt == next(iter(printed)):
            assert run(capsys, *argv) == result
    else:
        code, out, err = result
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"error:usage: argument --format: invalid choice: '{fmt}'")


def test_moments_choices_come_from_the_engine_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: a.choices for a in sub.choices["moments"]._actions}
    assert choices["method"] == ENGINES["poisson"] + ("all",)
    assert choices["measure"] == tuple(ENGINES)


@pytest.mark.parametrize(
    "argv, err",
    [
        (("moments", "--measure", "wigner", "--m", "700"),
         "error:size-limit: moment_diagram needs m*q <= 16, got 700\n"),
        (("moments", "--measure", "wigner", "--m", "700", "--method", "product"),
         "error:size-limit: table would hold 2097152 entries, cap is 1000000\n"),
        (("moments", "--m", "2", "--bins", "100000000000"),
         "error:size-limit: table would hold 100000000000 entries, cap is 1000000\n"),
        (("converge", "--family", "indicator", "--steps", "51"),
         "error:size-limit: convergence_experiment needs 1 <= steps <= 50, got 51\n"),
    ],
    ids=["wigner-diagram", "wigner-product", "oversize-indicator", "converge-steps"],
)
def test_oversize_orders_and_tables_are_size_limit(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "count.json"
    code, out, _ = run(capsys, "nc", "--n", "4", "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text()) == {"n": 4, "noncrossing": 14, "total": 15}


def test_kernel_file_roundtrip_through_cli(tmp_path, capsys):
    f = GridKernel.indicator(4, cells=[0, 3])
    path = tmp_path / "kernel.json"
    save_kernel(f, str(path))
    code, out, _ = run(capsys, "moments", "--m", "2", "--kernel", str(path))
    payload = json.loads(out)
    assert code == 0 and payload["value_re"] == 2.0 and payload["lambda"] == 2.0


def test_kernel_file_missing(capsys):
    code, _, err = run(capsys, "moments", "--m", "2", "--kernel", "/nonexistent/kernel.json")
    assert code == 1 and err.startswith("error:io:")


def test_kernel_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "moments", "--m", "2", "--kernel", str(path))
    assert code == 1 and err.startswith("error:io:")


def test_kernel_file_bad_payload(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"arity": 1, "bins": 2}))
    code, _, err = run(capsys, "moments", "--m", "2", "--kernel", str(path))
    assert code == 1 and err.startswith("error:domain:")


def test_infinite_cell_width_flag_is_domain(capsys):
    code, out, err = run(capsys, "moments", "--m", "2", "--bins", "2", "--cell-width", "inf")
    assert (code, out) == (1, "")
    assert err == "error:domain: cell_width must be finite, got inf\n"


@pytest.mark.parametrize(
    "header",
    [
        {"q": True},
        {"bins": True},
        {"cell_width": float("inf")},
        {"cell_width": 10**400},
        {"entries": [[0, 1.0, -(10**400)]]},
    ],
    ids=["bool-q", "bool-bins", "inf-cell-width", "huge-cell-width", "huge-entry"],
)
def test_boolean_or_infinite_kernel_file_header_is_domain(tmp_path, capsys, header):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"q": 1, "bins": 2, "cell_width": 0.5, "entries": [[0, 1.0, 0.0]], **header}))
    for argv in (("moments", "--m", "2"), ("identity",)):
        code, out, err = run(capsys, *argv, "--kernel", str(path))
        assert (code, out) == (1, "") and err.startswith("error:domain:") and err.count("\n") == 1


def test_non_finite_kernel_file_entry_is_domain(tmp_path, capsys):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"q": 1, "bins": 2, "cell_width": 0.5, "entries": [[0, float("nan"), 0.0]]}))
    code, out, err = run(capsys, "moments", "--m", "2", "--kernel", str(path))
    assert (code, out) == (1, "")
    assert err == "error:domain: entry values must be finite, got [0, nan, 0.0]\n"


JUNK = st.one_of(
    st.sampled_from([10**400, -(10**400), 10**20, math.nan, math.inf, -math.inf, None]),
    st.booleans(),
    st.text(max_size=3),
)
BROKEN_HEADER = {
    "q": st.one_of(st.integers(-3, -1), JUNK),
    "bins": st.one_of(st.integers(-3, 0), st.sampled_from([10**6 + 1, 10**9]), JUNK),
    "cell_width": st.one_of(st.sampled_from([0, -1.0]), JUNK),
    "entries": JUNK,
}


@st.composite
def kernel_files(draw):
    # a valid file at q <= 3 and bins <= 4, then maybe some header fields and
    # one row broken: junk in a field or cell, or a row of the wrong length
    q, bins = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    cells = draw(st.sets(st.tuples(*[st.integers(0, bins - 1)] * q), max_size=4))
    rows = [[*idx, draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))] for idx in sorted(cells)]
    payload = {"q": q, "bins": bins, "cell_width": draw(st.floats(0.25, 2.0)), "entries": rows}
    for key in draw(st.sets(st.sampled_from(sorted(BROKEN_HEADER)))):
        payload[key] = draw(BROKEN_HEADER[key])
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        pos = draw(st.integers(0, len(row) - 1))
        how = draw(st.sampled_from(["junk", "long", "short"]))
        if how == "junk":
            row[pos] = draw(st.one_of(JUNK, st.sampled_from([-1, bins])))
        elif how == "long":
            row.append(0.0)
        else:
            del row[pos]
    return payload


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=kernel_files())
def test_malformed_kernel_files_end_in_one_error_line(tmp_path, capsys, payload):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "moments", "--m", "2", "--kernel", str(path))
    if code == 0:
        assert err == "" and json.loads(out)["m"] == 2
    else:
        assert code == 1 and out == "" and re.fullmatch(r"error:[a-z-]+: [^\n]*\n", err), err


def test_asymmetric_kernel_file_reports_mirror_error(tmp_path, capsys):
    path = tmp_path / "asym.json"
    payload = {
        "q": 2,
        "bins": 2,
        "cell_width": 1.0,
        "entries": [[0, 1, 1.0, 0.0]],
    }
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "identity", "--kernel", str(path))
    assert code == 1 and err.startswith("error:mirror-symmetry:")


def test_unknown_subcommand_is_usage(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2 and err.startswith("error:usage:")


def test_bad_choice_is_usage(capsys):
    code, _, err = run(capsys, "moments", "--m", "2", "--method", "bogus")
    assert code == 2 and err.startswith("error:usage:")


def test_missing_required_flag_is_usage(capsys):
    code, _, err = run(capsys, "transfer")
    assert code == 2 and err.startswith("error:usage:")


def test_converge_bad_steps_is_domain(capsys):
    code, _, err = run(capsys, "converge", "--family", "indicator", "--steps", "0")
    assert code == 1 and err.startswith("error:domain:")


@pytest.mark.parametrize("m, total", [(15, 83097), (16, 227475)])
@pytest.mark.parametrize("method", ["product", "trace"])
def test_orders_fifteen_and_sixteen_reach_the_law_at_unit_rate(capsys, m, total, method):
    # the Riordan counts share the class cap, so the CLI's law column admits m = 15 and 16
    code, out, err = run(capsys, "moments", "--m", str(m), "--method", method, "--bins", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["value_re"], report["oracle"]) == (total, total)


def test_converge_zero_bins_is_one_domain_line(capsys):
    # the noise must not be drawn before bins is checked: numpy warns on an empty draw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, "converge", "--family", "perturbed-indicator", "--bins", "0")
    assert result == (1, "", "error:domain: bins must be >= 1, got 0\n")


@pytest.mark.parametrize("flag", [("--rho", "nan"), ("--eps0", "inf")], ids=" ".join)
def test_converge_non_finite_perturbation_is_one_domain_line(capsys, flag):
    # a NaN table used to reach the mirror check, after a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, "converge", "--family", "perturbed-indicator", *flag)
    assert result == (1, "", "error:domain: kernel values must be finite\n")


@pytest.mark.parametrize(
    "flags, line",
    [
        (("--rho", "1e200"), "overflow encountered in matmul"),
        (("--rho", "1e100", "--steps", "2"), "invalid value encountered in scalar multiply"),
    ],
    ids=["rho-1e200", "rho-1e100-steps-2"],
)
def test_converge_past_the_float_range_is_one_domain_line(capsys, flags, line):
    # these used to end in an OverflowError traceback after numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, "converge", "--family", "perturbed-indicator", *flags)
    assert result == (1, "", f"error:domain: outside the float range: {line}\n")


def test_float_power_overflow_is_one_domain_line(capsys):
    # step 1 is tiny, and rho**2 overflows a Python float power at step 2;
    # the line names the base and the exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, "converge", "--family", "perturbed-indicator", "--rho", "1e200", "--eps0", "1e-300")
    assert result == (1, "", "error:domain: outside the float range: 1e+200**2\n")


# on one cell 1.2e154 wide, lambda and the third moment fit a float but the
# fourth moment, 2*lambda**2 + lambda, does not
PAST_THE_FLOAT_RANGE = [
    ("moments", "--m", "4", "--method", method, "--format", fmt)
    for method in ("product", "diagram", "trace")
    for fmt in ("json", "csv")
] + [("transfer", "--M", "4", "--format", "csv"), ("identity",)]


@pytest.mark.parametrize("argv", PAST_THE_FLOAT_RANGE, ids=" ".join)
def test_a_moment_past_the_float_range_is_one_domain_line(capsys, argv):
    # these used to exit 0 and print inf and nan, or Infinity and NaN as JSON
    code, out, err = run(capsys, *argv, "--bins", "1", "--cell-width", "1.2e154")
    assert (code, out) == (1, "")
    assert err.startswith("error:domain: outside the float range: ") and err.count("\n") == 1


@pytest.mark.parametrize("bins", ["0", "-2"])
def test_converge_hyperdiagonal_bad_bins_names_bins(capsys, bins):
    result = run(capsys, "converge", "--family", "hyperdiagonal", "--bins", bins)
    assert result == (1, "", f"error:domain: bins must be >= 1, got {bins}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--m", "3", "--bins", "-1"),
        ("moments", "--m", "3", "--family", "random", "--bins", "-2"),
        ("identity", "--bins", "-1"),
        ("transfer", "--M", "3", "--bins", "-1"),
        ("converge", "--family", "indicator", "--bins", "-1"),
    ],
    ids=" ".join,
)
def test_negative_bins_names_bins(capsys, argv):
    # bins is checked before any table is allocated, so numpy never sees it
    result = run(capsys, *argv)
    assert result == (1, "", f"error:domain: bins must be >= 1, got {argv[-1]}\n")


@pytest.mark.parametrize(
    "flags, line",
    [
        (("--cell-width", "-1"), "cell_width must be > 0 and finite, got -1.0"),
        (("--cell-width", "nan"), "cell_width must be > 0 and finite, got nan"),
        (("--cell-width", "1e308", "--bins", "8"), "outside the float range: bins * cell_width = inf"),
    ],
    ids=["width--1", "width-nan", "width-1e308-bins-8"],
)
def test_converge_hyperdiagonal_bad_cell_width_is_one_domain_line(capsys, flags, line):
    # the width was checked only after bins * cell_width, and named its product
    result = run(capsys, "converge", "--family", "hyperdiagonal", *flags)
    assert result == (1, "", f"error:domain: {line}\n")


@pytest.mark.parametrize("flags", [("-1",), ("inf",), ("nan", "--format", "csv")], ids=" ".join)
def test_converge_bad_tol_is_refused_before_the_first_step(capsys, monkeypatch, flags):
    # these used to exit 0, or to run every step and only then fail on NaN
    def refuse(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(theorems, "moment_diagram", refuse)
    code, out, err = run(capsys, "converge", "--family", "indicator", "--steps", "2", "--tol", *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error:domain: gap_threshold must be >= 0 and finite, got ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--m", m, "--family", "random", "--q", "0", "--method", method)
        for method in ("product", "diagram", "trace", "all")
        for m in ("2", "3")
    ]
    + [("nc", "--classes", "--m", "0", "--q", "2"), ("transfer", "--M", "3", "--family", "random", "--q", "0")],
    ids=" ".join,
)
def test_arity_zero_is_domain(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error:domain:") and err.count("\n") == 1


# Flags that the run would not read, each set on its own. The kernel file need
# not exist: the flags are checked before any work.
UNREAD_FLAGS = [
    (("--q", "2"), "--q is not read by --family indicator"),
    (("--seed", "3"), "--seed is not read by --family indicator"),
    (("--family", "indicator", "--seed", "0"), "--seed is not read by --family indicator"),
] + [
    (("--kernel", "missing.json", *flag), f"{flag[0]} is not read with --kernel")
    for flag in (("--family", "indicator"), ("--family", "random"), ("--q", "1"), ("--bins", "8"),
                 ("--cell-width", "1.0"), ("--seed", "0"))
]


@pytest.mark.parametrize("prefix", [("moments", "--m", "4"), ("identity",), ("transfer", "--M", "3")], ids=" ".join)
@pytest.mark.parametrize("flags, line", UNREAD_FLAGS, ids=[" ".join(f) for f, _ in UNREAD_FLAGS])
def test_kernel_flags_that_are_not_read_are_usage_errors(capsys, prefix, flags, line):
    # `moments --m 4 --q 2 --bins 3` used to exit 0 and print "q": 1
    assert run(capsys, *prefix, *flags) == (2, "", f"error:usage: {line}\n")


@pytest.mark.parametrize(
    "family, flag",
    [
        (family, flag)
        for family, unread in (
            ("indicator", ("--q", "--eps0", "--rho", "--seed")),
            ("perturbed-indicator", ("--q",)),
            ("hyperdiagonal", ("--eps0", "--rho", "--seed")),
        )
        for flag in unread
    ],
    ids=" ".join,
)
def test_converge_flags_that_are_not_read_are_usage_errors(capsys, family, flag):
    result = run(capsys, "converge", "--family", family, flag, "2")
    assert result == (2, "", f"error:usage: {flag} is not read by --family {family}\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_cap():
    text = README.read_text(encoding="utf-8")
    caps = re.findall(r"^(MAX_\w+) =", Path(errors.__file__).read_text(encoding="utf-8"), re.M)
    assert len(caps) >= 6 and [cap for cap in caps if f"`{cap}`" not in text] == []


def test_only_errors_py_refuses_a_size():
    # every size budget lives in errors.py: no other module raises SizeLimitError
    # itself or compares a value with a MAX_* cap
    def breaks(node) -> bool:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if isinstance(node, ast.Raise):
            return "SizeLimitError" in names
        return isinstance(node, ast.Compare) and any(name.startswith("MAX_") for name in names)

    src = Path(errors.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if breaks(node)
    ]
    assert found == []


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    assert len(freechaos.__all__) >= 59
    assert [name for name in freechaos.__all__ if not re.search(rf"\b{name}\b", text)] == []


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [
        line.split("#", 1)[0]
        for block in re.findall(r"```\n(.*?)```", section, re.S)
        for line in block.splitlines()
        if line.startswith("freechaos ")
    ]
    assert lines
    # the README's own kernel-file example serves the --kernel kernel.json line
    kernel = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "kernel.json").write_text(kernel, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    failed = [line for line in lines if run(capsys, *shlex.split(line)[1:])[0] != 0]
    assert failed == []
