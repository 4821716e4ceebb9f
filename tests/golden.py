"""Seed-0 outputs of the command line at small sizes, reduced to numbers, and
their comparison with the recorded ``golden.json``.

Every call runs ``homfield.cli.main`` in-process in a directory of its own.
What it writes is reduced file by file:

* a CSV to its rows, each cell an int, a float or a string;
* ``runlog.jsonl`` and ``figure1_report.json`` to their records without
  ``wall_s``, and a heatmap sidecar to its record;
* an HFFLD1 field dump to its kind, d, N, normalized l2 norm and Fourier
  coefficients (f, phi_k) at k = (1,0), (0,1) and (1,1), read with numpy
  from the documented byte layout rather than through the package.

Re-record after a change of realization that is meant (and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/golden.py

which prints every entry that moved beyond the comparison's tolerance,
with its recorded and new value and, for a number, the relative change,
and rewrites only those: every value that still matches keeps its recorded
text, so the file's diff shows the intended change alone.
"""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import struct
import sys

import numpy as np

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
RTOL = 1e-10
# A recorded 0.0 may be rounding noise on another platform, such as the
# imaginary part of a covariance diagonal c conj(c), which a fused
# multiply-add leaves at the rounding error of a product: it matches any
# value of magnitude up to ATOL.
ATOL = 1e-14

LAW = "bernoulli(0.5,1,2)"
LADDER = "4,8,16"
CALLS = {
    # tag: (subcommand, [run] body, extra flags)
    "ahom": ("ahom", f"d = 2\nN = 32\nM = 4\nlaw = {LAW}\n", []),
    "rates_pseudo": ("rates", f"N = {LADDER}\nlaw = {LAW}\nkset = 1,0\nM = 4\n"
                     "experiment = pseudo\n", []),
    "rates_bilap": ("rates", f"N = {LADDER}\nlaw = {LAW}\nbeta = 0.75\nM = 4\n"
                    "mode_cutoff = 2\nahom = 1.4142135623730951\nexperiment = bilap\n", []),
    # no mode_cutoff: every mode of the window
    "rates_bilap_window": ("rates", f"N = {LADDER}\nlaw = {LAW}\nbeta = 0.75\nM = 2\n"
                           "ahom = 1.4142135623730951\nexperiment = bilap\n", []),
    "rates_disc": ("rates", f"N = {LADDER}\nbeta = 0.75\nexperiment = disc\n", []),
    "cov": ("cov", f"N = 16\nlaw = {LAW}\nkset = 1,0; 0,1; 1,1\nM = 2\n"
            "noise_replicates = 50\n", []),
    "sample_gff_law": ("sample", f"N = 16\nlaw = {LAW}\nfield = gff\n", []),
    "sample_bilap_law": ("sample", f"N = 16\nlaw = {LAW}\nfield = bilap\n", []),
    "sample_gff_hom": ("sample", "N = 16\nfield = gff\n", ["--heatmap"]),
    "figure1": ("figure1", "N = 32\n", []),
    # paths the small calls above do not reach: a stack of several PCG
    # chunks on two threads (12 node fields cut 8 + 4, each with its own
    # shift), chunks whose fields share one shift, and replicate threads
    "sample_gff_law_N64": ("sample", f"N = 64\nlaw = {LAW}\nfield = gff\n", []),
    "cov_N64": ("cov", f"N = 64\nlaw = {LAW}\nkset = 1,0; 0,1; 1,1; 2,0\nM = 2\n"
                "noise_replicates = 50\n", []),
    "ahom_N128": ("ahom", f"d = 2\nN = 128\nM = 2\nlaw = {LAW}\n", []),
    # d = 3, where the stencil has an axis that is neither first nor last
    # (no dump: _field_dump reads the d = 2 Fourier modes)
    "ahom_d3": ("ahom", f"d = 3\nN = 8\nM = 2\nlaw = {LAW}\n", []),
    "rates_bilap_d3": ("rates", f"d = 3\nN = {LADDER}\nlaw = {LAW}\nbeta = 0.75\nM = 2\n"
                       "mode_cutoff = 1\nahom = 1.4430\nexperiment = bilap\n", []),
}
MODES = ((1, 0), (0, 1), (1, 1))


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _field_dump(path) -> dict:
    data = pathlib.Path(path).read_bytes()
    d, N = struct.unpack("<qq", data[6:22])
    kind = data[22:34].rstrip(b"\0").decode()
    f = np.frombuffer(data[34:], dtype="<f8").reshape((N,) * d)
    x = np.ix_(*[np.arange(N) - N // 2] * d)
    coefficients = {}
    for k in MODES:
        c = np.mean(f * np.exp(-2j * np.pi * sum(ki * xi for ki, xi in zip(k, x)) / N))
        coefficients[",".join(map(str, k))] = [float(c.real), float(c.imag)]
    return {"kind": kind, "d": d, "N": N, "l2": float(np.sqrt(np.mean(f**2))),
            "dft": coefficients}


def _reduce(path) -> object:
    name = os.path.basename(path)
    if name.endswith(".csv"):
        with open(path, newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    if name.endswith(".hf"):
        return _field_dump(path)
    if name == "runlog.jsonl":
        records = [json.loads(line) for line in pathlib.Path(path).read_text().splitlines()]
        return [{k: v for k, v in r.items() if k != "wall_s"} for r in records]
    if name.endswith(".json"):
        record = json.loads(pathlib.Path(path).read_text())
        record.pop("wall_s", None)
        return record
    return None  # heatmap pixels: their range is in the sidecar


def collect(root) -> dict:
    """Run every call of CALLS under ``root`` and reduce its outputs."""
    from homfield import cli

    outputs = {}
    for tag, (command, body, flags) in CALLS.items():
        out = os.path.join(root, tag)
        os.makedirs(out)
        config = os.path.join(out, "run.ini")
        with open(config, "w") as fh:
            fh.write("[run]\n" + body)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", config, "--seed", "0", "--out", out, *flags])
        files = {name: _reduce(os.path.join(out, name)) for name in sorted(os.listdir(out))
                 if name != "run.ini"}
        outputs[tag] = {"exit": code, "files": {k: v for k, v in files.items() if v is not None}}
    return outputs


def _change(actual, expected) -> str:
    """'expected -> actual', with the relative change when both are numbers."""
    text = f"{expected!r} -> {actual!r}"
    if expected and all(type(v) in (int, float) for v in (actual, expected)):
        text += f" ({(actual - expected) / abs(expected):+.2e} relative)"
    return text


def compare(actual, expected, where="") -> list:
    """Paths at which ``actual`` differs from ``expected``, each with the
    change from the expected to the actual value: floats beyond RTOL (ATOL
    for a recorded 0.0), a key that only one side has, anything else when
    not equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return ([f"{where}/{k}: {'added' if k in actual else 'removed'}"
                 for k in sorted(actual.keys() ^ expected.keys())]
                + [m for k in expected if k in actual
                   for m in compare(actual[k], expected[k], f"{where}/{k}")])
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if (math.isnan(expected) and math.isnan(actual)) or math.isclose(
                actual, expected, rel_tol=RTOL, abs_tol=0.0 if expected else ATOL):
            return []
        return [f"{where}: {_change(actual, expected)}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {_change(actual, expected)}"]
    return []


def keep_unmoved(actual, expected):
    """``actual`` with every part that matches ``expected`` (``compare``
    finds no change) replaced by the recorded part; keys and entries that
    only one side has follow ``actual``."""
    if not compare(actual, expected):
        return expected
    if isinstance(actual, dict) and isinstance(expected, dict):
        return {k: keep_unmoved(v, expected[k]) if k in expected else v
                for k, v in actual.items()}
    if isinstance(actual, list) and isinstance(expected, list) and len(actual) == len(expected):
        return [keep_unmoved(a, e) for a, e in zip(actual, expected)]
    return actual


if __name__ == "__main__":
    import tempfile

    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        recorded = collect(tmp)
    for change in compare(recorded, previous):
        print(change)
    merged = keep_unmoved(recorded, previous)
    GOLDEN.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(recorded)} calls)", file=sys.stderr)
