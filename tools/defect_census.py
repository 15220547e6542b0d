"""Planted-defect census of the tier-1 suite.

Each defect replaces one source line in its own copy of `src/`, `tests/`
and `pyproject.toml`; the tier-1 suite then runs on that copy with
`-x -q`, so the first failing test is the defect's killer.  The census
deselects the three known red rows
(`test_acceptance_08_transfer_time_scaling`), as tier-1 itself does not,
and the test of this census's own table, which reads the unplanted lines
from a tree without `tools/`.
An unplanted copy runs first and must pass.

    python tools/defect_census.py                  # every defect
    python tools/defect_census.py --without-pins   # pin tests deselected too

With `--without-pins` the bitwise pins are deselected as well, so a defect
that only a pin kills survives: the census then shows which defects the
peak search's other tests guard.  Prints a Markdown kill table and exits
1 if any defect's outcome differs from its expectation.  Not a test
module: each defect re-runs the whole suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AMPLITUDES = "src/ppxfer/amplitudes.py"
ORACLE = "src/ppxfer/oracle.py"
SPECTRAL = "src/ppxfer/spectral.py"

SUITE_TIMEOUT_S = 900   # tier-1 takes about 20 s unplanted

KNOWN_RED = ("tests/test_acceptance.py::test_acceptance_08_transfer_time_scaling",)
SELF_CHECK = ("tests/test_tooling.py::"
              "test_every_planted_defect_still_finds_its_line_and_its_killer",)
PIN_FILE = "tests/test_bitwise_outputs.py"
PINS = (
    PIN_FILE,
    "tests/test_spectral.py::test_decompositions_keep_their_bits",
    "tests/test_spectral.py::test_pinned_bits_do_not_depend_on_the_blas_thread_count",
    "tests/test_cli.py::test_pinned_stdout_does_not_depend_on_the_blas_thread_count",
)

# name: (file, old line, new line, expected killer (a node id prefix) or
# "equivalent: reason", or a pair of them: the killer with the pins and the
# one without)
DEFECTS = {
    "slack-0": (
        AMPLITUDES,
        "        slack = _probability_slack(reduce, blocks, bound)",
        "        slack = 0.0",
        "tests/test_amplitudes.py::"
        "test_window_max_stays_exact_when_the_surrogate_uses_its_whole_bound"),
    "surrogate-permanent": (
        AMPLITUDES,
        "        surrogate = reduce(blocks)",
        "        surrogate = boson_prob(blocks)",
        "tests/test_amplitudes.py::test_window_max_is_an_exact_sweep"),
    "fermion-complex-cast": (
        AMPLITUDES,
        '    a = _square_stack(sub, DET_DIM_CAP, "determinant")',
        '    a = _square_stack(sub, DET_DIM_CAP, "determinant").astype(complex, copy=False)',
        "tests/test_amplitudes.py::"
        "test_fermion_prob_eliminates_a_real_stack_without_a_complex_copy"),
    "bound-without-P": (
        AMPLITUDES,
        "    unpaired = (0.5 * np.max(np.sum(np.abs(products - parity * products[..., ::-1]), "
        "axis=-1))",
        "    unpaired = 0.0 * (0.5 * np.max(np.sum(np.abs(products - parity * "
        "products[..., ::-1]), axis=-1))",
        "tests/test_amplitudes.py::test_propagator_grid_bound_covers_a_pairing_defect"),
    "non-pp-horizon-5": (
        AMPLITUDES,
        "NON_PP_HORIZON_FACTOR = 10.0        # scan_max_probability horizon, in units of "
        "pi/(2 delta*)",
        "NON_PP_HORIZON_FACTOR = 5.0",
        "tests/test_amplitudes.py::test_scan_max_probability_reaches_past_five_slow_half_periods"),
    "polish-keeps-ties": (
        AMPLITUDES,
        "    if p_k > p:",
        "    if p_k >= p:",
        "equivalent: only an exact float tie between the polished and the grid value "
        "takes the other branch, and both report that same p"),
    "ascent-goes-on-ties": (
        AMPLITUDES,
        "        if p_w <= p:",
        "        if p_w < p:",
        "equivalent: on an equal p the re-centred window finds the same point again, "
        "so the same (t, p) comes out"),
    "window-hops-1": (
        AMPLITUDES,
        "PEAK_WINDOW_HOPS = 8                # max dense-window ascent steps",
        "PEAK_WINDOW_HOPS = 1",
        PIN_FILE),
    "refine-top-1": (
        AMPLITUDES,
        "REFINE_TOP = 5                      # local maxima polished by scan_max_probability",
        "REFINE_TOP = 1",
        PIN_FILE),
    "no-pi-over-delta-centre": (
        AMPLITUDES,
        "        math.pi / delta_slow,",
        "",
        PIN_FILE),
    "golden-40": (
        AMPLITUDES,
        "GOLDEN_ITERS = 60",
        "GOLDEN_ITERS = 40",
        PIN_FILE),
    "horizon-2.0": (
        AMPLITUDES,
        "HORIZON_FACTOR = 2.4                # in units of pi/(2 delta*)",
        "HORIZON_FACTOR = 2.0",
        PIN_FILE),
    "lattice-values-per-chunk": (
        AMPLITUDES,
        "        values = scratch[:k]",
        "        values = np.empty((k, even.size, span))",
        "tests/test_observables.py::test_battery_chunks_do_not_fault_their_scratch_back_in"),
    "lattice-table-per-chunk": (
        AMPLITUDES,
        "        k = len(anchors[part])",
        "        k = len(anchors[part]); table = np.empty((size, even.size, 2, half))",
        "tests/test_observables.py::test_lattice_chunks_hold_no_buffer_made_inside_the_loop"),
    # The two oracle defects below break every oracle check; the acceptance
    # gate's oracle row runs first.  Run alone on a planted copy,
    # tests/test_oracle.py also fails
    # test_sector_spectrum_is_sum_of_single_particle_levels on each.
    "fermion-cap-n": (
        ORACLE,
        '    cap = 1 if basis.statistics == "fermion" else basis.n_particles  # per site',
        "    cap = basis.n_particles",
        "tests/test_acceptance.py::test_acceptance_01_oracle_equivalence"),
    "hop-factor-without-1": (
        ORACLE,
        "                factors.append(math.sqrt(here * (there + 1)))",
        "                factors.append(math.sqrt(here * there))",
        "tests/test_acceptance.py::test_acceptance_01_oracle_equivalence"),
    # The two defects below plant in `diagonalize`.  The first breaks only
    # a mirror profile of even N with a nonzero diagonal, which no pinned
    # output decomposes; the second every mirror profile's parities.
    "s-negation-on-any-diagonal": (
        SPECTRAL,
        "        if n % 2 == 0 and bipartite:",
        "        if n % 2 == 0:",
        "tests/test_spectral.py::test_diagonalize_matches_a_dense_reference_on_every_branch"),
    "parities-not-sorted": (
        SPECTRAL,
        "    parities = parities[order]",
        "",
        (PIN_FILE,
         "tests/test_spectral.py::test_diagonalize_matches_a_dense_reference_on_every_branch")),
}


def plant(tree: Path, file: str, old: str, new: str) -> None:
    """Replace the one line of `file` equal to `old` with `new`."""
    path = tree / file
    lines = path.read_text().split("\n")
    hits = [k for k, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        raise SystemExit(f"{file}: {len(hits)} lines equal {old!r}, not 1")
    lines[hits[0]] = new
    path.write_text("\n".join(lines))


def run_suite(tree: Path, deselect: tuple[str, ...]) -> tuple[str | None, float]:
    """(first failing node id, or None if the suite passed; seconds)."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    for node in deselect:
        argv += ["--deselect", node]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    try:
        child = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                               timeout=SUITE_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # a defect that hangs the suite is caught
        return f"timeout after {SUITE_TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if child.returncode == 0:
        return None, seconds
    for line in child.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            # "FAILED <node id> - <message>"; a node id may hold spaces
            return line.split(" ", 1)[1].split(" - ", 1)[0], seconds
    return f"exit {child.returncode}", seconds


def expected_outcome(expected: str | tuple[str, str], without_pins: bool) -> str | None:
    """The node id prefix that should kill the defect, or None if it should
    survive (an equivalent defect, or a pin-only one with the pins off)."""
    if isinstance(expected, tuple):
        expected = expected[without_pins]
    if expected.startswith("equivalent:"):
        return None
    if without_pins and expected.startswith(PINS):
        return None
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--without-pins", action="store_true",
                        help="deselect the bitwise pin tests as well")
    args = parser.parse_args(argv)
    deselect = KNOWN_RED + SELF_CHECK + (PINS if args.without_pins else ())
    rows, misses = [], 0
    with tempfile.TemporaryDirectory(prefix="defect-census-") as scratch:
        base = Path(scratch) / "base"
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, base / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", base / "pyproject.toml")
        killer, _ = run_suite(base, deselect)
        if killer is not None:
            print(f"the unplanted tree fails {killer}", file=sys.stderr)
            return 2
        for name, (file, old, new, expected) in DEFECTS.items():
            tree = Path(scratch) / name
            shutil.copytree(base, tree)
            plant(tree, file, old, new)
            killer, seconds = run_suite(tree, deselect)
            shutil.rmtree(tree)
            want = expected_outcome(expected, args.without_pins)
            ok = killer is None if want is None else (killer or "").startswith(want)
            misses += not ok
            outcome = "survived" if killer is None else f"killed by `{killer}`"
            if isinstance(expected, tuple):
                expected = f"{expected[0]}; without the pins {expected[1]}"
            rows.append(f"| {name} | `{new.strip() or '(line deleted)'}` | {expected} "
                        f"| {outcome} | {seconds:.0f} | {'yes' if ok else 'NO'} |")
            print(rows[-1], file=sys.stderr, flush=True)
    print("| defect | planted line | expected | outcome | s | as expected |")
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
