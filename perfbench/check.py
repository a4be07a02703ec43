"""Output checker: every invocation's exit code and outputs against oracles.

The final potential of ``trace``, ``scan`` and ``chain`` is compared with the
quasi-entropy of the dense closed-form transform (``builders.wht_matrix`` or
``builders.dft_real_matrix``), never with a replayed trajectory.  Direction
systems are checked for orthonormality and thresholds, simulation CSVs for
their shape and for the planted overflow cells.

Under numpy >= 2 some CSV cells read ``np.float64(x)`` instead of ``x``.  The
checker unwraps such cells to check their value and counts them; the count
is reported, never treated as a failure.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import EPS, PLANTED_K, GateFile, Invocation

SLACK_TOL = 1e-7
ORTHO_TOL = 1e-8
NONFLOAT = "np.float64("
EPS_VALUE = 2.0 ** int(EPS.split("^")[1])


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    ok: bool
    nonfloat_cells: int
    reason: str = ""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _unwrap(text: str) -> tuple[str, int]:
    count = text.count(NONFLOAT)
    if count:
        text = text.replace(NONFLOAT, "").replace(")", "")
    return text, count


def _csv_body(text: str, header: str) -> str:
    lines = text.split("\n", 2)
    _expect(len(lines) == 3, "CSV truncated")
    _expect(lines[0] == "# schema_version=1", f"CSV schema line {lines[0]!r}")
    _expect(lines[1] == header, f"CSV header {lines[1]!r}")
    return lines[2]


def _orthonormal(vectors: list, n: int, what: str) -> None:
    if not vectors:
        return
    V = np.array(vectors, dtype=float)
    _expect(V.ndim == 2 and V.shape[1] == n, f"{what}: vectors have shape {V.shape}")
    residual = float(np.abs(V @ V.T - np.eye(len(V))).max())
    _expect(residual <= ORTHO_TOL, f"{what}: Gram residual {residual:.3e}")


class Checker:
    """Checks outputs; caches the dense oracles and gate-file headers."""

    def __init__(self, files_dir: str):
        self.files_dir = files_dir
        self._phi: dict[tuple[str, int], float] = {}
        self._headers: dict[GateFile, tuple[int, int]] = {}

    def check(self, inv: Invocation, code: int, out_base: str) -> Outcome:
        nonfloat = 0
        try:
            payloads = []
            for path in inv.outputs(out_base):
                with open(path) as fh:
                    text = fh.read()
                if path.endswith(".csv"):
                    text, count = _unwrap(text)
                    nonfloat += count
                    payloads.append(text)
                else:
                    payloads.append(json.loads(text))
            getattr(self, "_" + inv.sub)(inv, code, *payloads)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(False, nonfloat, f"{inv.label}: {type(exc).__name__}: {exc}")
        return Outcome(True, nonfloat)

    def header(self, f: GateFile) -> tuple[int, int]:
        if f not in self._headers:
            with open(f"{self.files_dir}/{f.name}") as fh:
                tokens = fh.readline().split()
            _expect(tokens[0] == "n" and tokens[2] == "m", f"bad gate-file header {tokens}")
            self._headers[f] = (int(tokens[1]), int(tokens[3]))
        return self._headers[f]

    def final_phi(self, f: GateFile) -> float:
        key = (f.target, f.n)
        if key not in self._phi:
            from gatelab import builders, potential

            F = builders.wht_matrix(f.n) if f.target == "wht" else builders.dft_real_matrix(f.n)
            self._phi[key] = potential.quasi_entropy(F, F)
        return self._phi[key]

    def _phi_matches(self, f: GateFile, phi: float) -> None:
        want = self.final_phi(f)
        _expect(abs(phi - want) <= 1e-6 * max(1.0, abs(want)),
                f"final phi {phi!r}, closed form gives {want!r}")

    def _validate(self, inv, code, payload):
        n, m = self.header(inv.file)
        _expect(code == 0, f"exit {code}")
        _expect(payload["stable"] is True, "not stable")
        _expect((payload["n"], payload["m"]) == (n, m), "n/m mismatch")
        _expect(0.0 <= payload["max_residual"] <= 1e-6, f"residual {payload['max_residual']}")

    def _trace(self, inv, code, text):
        n, m = self.header(inv.file)
        _expect(code == 0, f"exit {code}")
        rows = _csv_body(text, "t,phi,delta,bound,touched_i,touched_j").splitlines()
        _expect(len(rows) == m + 1, f"{len(rows)} rows, expected {m + 1}")
        phi = math.nan
        for t, row in enumerate(rows):
            fields = row.split(",")
            _expect(len(fields) == 6 and int(fields[0]) == t, f"row {t} malformed")
            phi, delta, bound = (float(x) for x in fields[1:4])
            _expect(math.isfinite(phi) and delta <= bound + SLACK_TOL, f"row {t}: delta above bound")
            for cell in fields[4:]:
                _expect(cell == "" or 0 <= int(cell) < n, f"row {t}: touched index {cell!r}")
        self._phi_matches(inv.file, phi)

    def _scan(self, inv, code, payload):
        _expect(code == 0, f"exit {code}")
        _expect(payload["m"] == self.header(inv.file)[1], "m mismatch")
        _expect(payload["slack"] >= -SLACK_TOL, f"slack {payload['slack']}")
        self._phi_matches(inv.file, payload["phi_final"])

    def _chain(self, inv, code, payload):
        _expect(code == 0, f"exit {code}")
        slacks = [payload["triangle"]["slack"], payload["min_window_slack"],
                  payload["max_vs_average_slack"], payload["scan"]["slack"]]
        slacks += [link["slack"] for link in payload["windows"]]
        _expect(min(slacks) >= -SLACK_TOL, f"slack {min(slacks)}")
        self._phi_matches(inv.file, payload["phi_final"])

    def _lemma(self, inv, code, payload):
        # The nominal two-row constants are false: at the default trial
        # counts the sweep must find violations and exit 2.  Smaller sweeps
        # may miss them, so there the exit code must match the report.  The
        # sharp constants must stay clean either way.
        unit, orth = payload["unit_pair_bound"], payload["orthogonal_change_bound"]
        nominal = unit["violations"] + orth["violations"]
        if "--pair-trials" not in inv.options:
            _expect(nominal > 0, "no nominal violation at the default trial counts")
        _expect(code == (2 if nominal else 0), f"exit {code} with {nominal} nominal violations")
        _expect(unit["corrected_violations"] == 0, "unit-pair corrected violations")
        _expect(orth["corrected_violations"] == 0, "orthogonal-change corrected violations")
        _expect(payload["nonsingular_change_bound"]["violations"] == 0, "nonsingular violations")
        _expect(all(r["violations"] == 0 for r in payload["fourier_projection_bound"]),
                "projection-bound violations")

    def _extract(self, inv, code, payload):
        n, _ = self.header(inv.file)
        _expect(code == 0, f"exit {code}")
        tau = payload["tau"]
        for kind in ("overflow", "underflow"):
            system = payload[kind]
            _expect(system["size"] == len(system["vectors"]) == len(system["magnitudes"]),
                    f"{kind}: size mismatch")
            _orthonormal(system["vectors"], n, kind)
            _expect(all(mag >= tau - 1e-12 for mag in system["magnitudes"]),
                    f"{kind}: magnitude below tau")
        _expect(payload["underflow"]["size"] > 0, "empty underflow system")

    def _volume(self, inv, code, payload):
        n, _ = self.header(inv.file)
        _expect(code == 0, f"exit {code}")
        gammas, k = payload["gammas"], payload["n_prime"]
        _expect(len(gammas) == n and k > 0, "basis size")
        _expect(all(g >= payload["tau"] - 1e-12 for g in gammas[:k]), "magnitude below tau")
        total = sum(math.log2(g) for g in gammas)
        _expect(abs(total - payload["sum_log2_gamma"]) <= 1e-9 * max(1.0, abs(total)),
                "sum_log2_gamma disagrees with gammas")
        _expect(payload["sum_log2_gamma"] >= payload["closed_form"] - 1e-9, "below closed form")

    def _underflow(self, inv, code, payload):
        n, _ = self.header(inv.file)
        _expect(code == 0, f"exit {code}")
        eps, k, widths = payload["epsilon"], payload["n_prime"], payload["widths"]
        _expect(eps == EPS_VALUE and len(widths) == n and k > 0, "widths/epsilon")
        _orthonormal(payload["directions"], n, "directions")
        _expect(len(payload["directions"]) == n, "directions do not span R^n")
        _expect(all(w >= eps * payload["tau"] * (1 - 1e-12) for w in widths[:k]),
                "width below epsilon * tau")
        _expect(all(w == eps for w in widths[k:]), "completion width is not epsilon")

    def _simulate(self, inv, code, text, summary):
        n, m = self.header(inv.file)
        _expect(code == 0, f"exit {code}")
        body = _csv_body(text, "t,i,mean_bits,max_abs,overflow_flag")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        _expect(table.shape == ((m + 1) * n, 5), f"CSV shape {table.shape}")
        grid_t, grid_i = np.divmod(np.arange((m + 1) * n), n)
        _expect(np.array_equal(table[:, 0], grid_t) and np.array_equal(table[:, 1], grid_i),
                "rows not in (t, i) order")
        _expect(bool(np.all(table[:, 2] >= 1.0) and np.all(table[:, 3] >= 0.0)),
                "mean_bits or max_abs out of range")
        _expect(bool(np.isin(table[:, 4], (0.0, 1.0)).all()), "overflow flag not 0/1")
        flagged = {(int(t), int(i)) for t, i in table[table[:, 4] == 1.0, :2]}
        _expect(flagged == {tuple(cell) for cell in summary["flagged"]}, "CSV flags != summary")
        samples = int(inv.options[inv.options.index("--samples") + 1])
        _expect((summary["n"], summary["m"], summary["samples"]) == (n, m, samples),
                "summary n/m/samples")
        if inv.file.kind == "scaled":
            # Row i is scaled up at step i+1 and back down at step k+i+1.
            planted = {(t, i) for i in range(PLANTED_K) for t in range(i + 1, PLANTED_K + i + 1)}
        else:
            planted = set()
        _expect(summary["overflow_count"] == len(planted) and flagged == planted,
                f"overflow cells {sorted(flagged)[:8]}, expected {len(planted)} planted")
