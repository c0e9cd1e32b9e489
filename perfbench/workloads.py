"""The four workloads: seeded items, CLI invocations and output checks.

An item is one unit of user work with fresh parameters drawn from
PARAM_BOX, so no process-wide cache can hit across items.  Every item
goes through ``besseltau.cli.main`` in-process, and its stdout is parsed
and checked: exit code, row count, and each value against a reference
from ``reference.py``; for ``check``, every verdict and line.
"""

import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

import reference

#: parameter box of every item, uniform in each part: nu = sigma + 1/2
#: complex, eta real as in the CLI default.  It is a box for timing: 2 nu
#: stays 0.2 from the integers, and resonance is not measured here.
PARAM_BOX = {"nu_re": (0.1, 0.4), "nu_im": (-0.1, 0.1), "eta": (-0.25, 0.25)}

#: relative tolerances.  Truncated routes are compared with the reference
#: route at the same truncation, so the tolerance is rounding, not the
#: truncation error; the Fredholm columns are converged and meet the
#: accepted reference itself.  The sigma-form residual gets none: it is
#: absolute, and near a zero of tau it reaches 0.1 even from an exact
#: determinant, so it only has to be finite.
TOL = {
    "tau_series": 1e-10,  # against the reference series at the same W, Q
    "zeta_series": 1e-9,  # same, relative to max(1, |zeta|)
    "est_error": 1e-6,
    "coeff": 1e-10,
}
#: Fredholm tolerances per workload.  For t <= 0.45 the determinant is
#: good to 1e-14.  At t = 20, I - A D has condition number up to 1e8: tau
#: was seen off by 2.5e-10, and the CLI's stencil (step fd_step / t = 5e-5
#: in log t) turns that into a zeta error of 5e-6.
FRED_TOL = {"small-t": {"tau": 1e-9, "zeta": 1e-6}, "large-t": {"tau": 1e-7, "zeta": 1e-3}}

#: relative size below which an error estimate or a true error is rounding
EST_FLOOR = 1e-12

TAU_COLUMNS = ("tau_fred", "tau_maya", "tau_nek")


def draw_params(rng):
    nu = complex(rng.uniform(*PARAM_BOX["nu_re"]), rng.uniform(*PARAM_BOX["nu_im"]))
    eta = complex(rng.uniform(*PARAM_BOX["eta"]), 0.0)
    return nu - 0.5, eta


def _base_config(sigma, eta):
    return {"sigma": [sigma.real, sigma.imag], "eta": [eta.real, eta.imag]}


@dataclass
class Score:
    """Outcome of checking one item; errors are None where not produced."""

    ok: bool = True
    reasons: list = field(default_factory=list)
    rel_err: float = 0.0
    ode_max: float = None
    est_ratio: float = None

    def fail(self, why):
        self.ok = False
        self.reasons.append(why)


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append({h: (float(c) if c else None) for h, c in zip(header, cells)})
    return header, rows


# ---------------------------------------------------------------------------
# CLI `tau`: grid-sweep and fredholm-large-t


class TauWorkload:
    command = "tau"

    def __init__(self, name, why, tail_pct, method, extra, grid, fred_tol):
        self.name, self.why, self.tail_pct = name, why, tail_pct
        self.method, self.extra, self.grid, self.fred_tol = method, extra, grid, fred_tol

    def make_item(self, rng):
        sigma, eta = draw_params(rng)
        cfg = _base_config(sigma, eta)
        cfg.update(method=self.method, t_grid=self.grid(rng), **self.extra)
        return {"configs": [(self.command, cfg)]}

    @staticmethod
    def _ts(cfg):
        g = cfg["t_grid"]
        space = np.geomspace if g["spacing"] == "log" else np.linspace
        return space(g["start"], g["stop"], g["count"])

    def reference(self, item):
        """Accepted tau and zeta per row; for series routes also the same
        truncation (W, Q) and the est_error that W+1 and N+2 imply."""
        cfg = item["configs"][0][1]
        sigma, eta, ts = complex(*cfg["sigma"]), complex(*cfg["eta"]), self._ts(cfg)
        nu = sigma + 0.5
        tau, theta = reference.accepted_tau(sigma, eta, ts)
        ref = {"tau": tau, "zeta": theta + nu**2}
        if self.method != "fredholm":
            w, q, n = cfg["weight_cutoff"], cfg["charge_cutoff"], cfg["N_modes"]
            trunc, th = reference.series_value(reference.maya_table(sigma, eta, w, q), ts, theta=True)
            finer = reference.series_value(reference.maya_table(sigma, eta, w + 1, q), ts)
            det_n, det_n2 = (reference.fredholm(sigma, eta, ts, k)[0] for k in (n, n + 2))
            ref.update(
                tau_trunc=trunc, zeta_trunc=th + nu**2,
                est_error=np.maximum(abs(finer - trunc), abs(det_n2 - det_n)),
            )
        return {k: [[complex(v).real, complex(v).imag] for v in vals] for k, vals in ref.items()}

    def check(self, item, outputs, ref):
        score = Score()
        (code, text), = outputs
        cfg = item["configs"][0][1]
        if code != 0:
            score.fail(f"exit code {code}")
            return score
        try:
            _, rows = _csv_rows(text)
        except (ValueError, IndexError) as exc:
            score.fail(f"unparsable CSV: {exc}")
            return score
        ts = self._ts(cfg)
        if len(rows) != len(ts):
            score.fail(f"{len(rows)} rows for {len(ts)} grid points")
            return score
        series = self.method != "fredholm"
        score.ode_max, score.est_ratio = 0.0, 0.0
        for i, (t, row) in enumerate(zip(ts, rows)):
            r = {k: complex(*v[i]) for k, v in ref.items()}
            if not math.isclose(row["t_re"], t, rel_tol=1e-15):
                score.fail(f"row t = {row['t_re']}, expected {t}")
            worst, present = 0.0, 0
            for col in TAU_COLUMNS:
                if row[f"{col}_re"] is None:
                    continue
                present += 1
                val = complex(row[f"{col}_re"], row[f"{col}_im"])
                worst = max(worst, abs(val - r["tau"]) / abs(r["tau"]))
                target, tol = (r["tau"], self.fred_tol["tau"]) if col == "tau_fred" else (r["tau_trunc"], TOL["tau_series"])
                err = abs(val - target) / abs(target)
                if not err <= tol:
                    score.fail(f"{col} at t={t}: rel err {err:.2e} > {tol:.0e}")
            if present != (3 if self.method == "all" else 1):
                score.fail(f"{present} tau columns at t={t}")
            zeta = complex(row["zeta_re"], row["zeta_im"])
            if series:
                zerr = abs(zeta - r["zeta_trunc"]) / max(1.0, abs(r["zeta_trunc"]))
                ztol = TOL["zeta_series"]
            else:
                zerr, ztol = abs(zeta - r["zeta"]) / max(1.0, abs(r["zeta"])), self.fred_tol["zeta"]
            if not zerr <= ztol:
                score.fail(f"zeta at t={t}: rel err {zerr:.2e} > {ztol:.0e}")
            if not 0 <= row["ode_residual"] < math.inf:
                score.fail(f"ode_residual at t={t} is {row['ode_residual']}")
            est = row["est_error"]
            # series: the W+1 change, recomputed; Fredholm is converged, so
            # its N+2 change is rounding and only bounded
            est_ok = (
                abs(est - r["est_error"].real) <= TOL["est_error"] * r["est_error"].real + 1e-13 * abs(r["tau"])
                if series
                else 0 <= est <= self.fred_tol["tau"] * abs(r["tau"])
            )
            if not est_ok:
                score.fail(f"est_error at t={t} is {est}")
            floor = EST_FLOOR * abs(r["tau"])
            score.rel_err = max(score.rel_err, worst)
            score.ode_max = max(score.ode_max, row["ode_residual"])
            score.est_ratio = max(score.est_ratio, max(worst * abs(r["tau"]), floor) / max(est, floor))
        return score

    def perturb(self, outputs):
        """Outputs that must fail the check: a scaled value, an exit code, a lost row."""
        (code, text), = outputs
        header, *rows = text.strip().splitlines()
        col = header.split(",").index("tau_fred_re" if self.method == "fredholm" else "tau_maya_re")
        cells = rows[0].split(",")
        cells[col] = repr(float(cells[col]) * 1.01)
        scaled = "\n".join([header, ",".join(cells), *rows[1:]]) + "\n"
        return {
            "value scaled by 1.01": [(code, scaled)],
            "exit code 3": [(3, text)],
            "last row lost": [(code, "\n".join([header, *rows[:-1]]) + "\n")],
        }


# ---------------------------------------------------------------------------
# CLI `series`: deep-series


class SeriesWorkload:
    name = "deep-series"
    why = (
        "series W=10 Q=3, a nekrasov and a maya table per item: table construction "
        "with no reuse, so a cache predicts no change"
    )
    tail_pct = 50
    W, Q = 10, 3

    def make_item(self, rng):
        sigma, eta = draw_params(rng)
        cfg = _base_config(sigma, eta)
        cfg.update(weight_cutoff=self.W, charge_cutoff=self.Q)
        order = ("nekrasov", "maya") if rng.random() < 0.5 else ("maya", "nekrasov")
        return {"configs": [("series", dict(cfg, method=m)) for m in order]}

    def reference(self, item):
        cfg = item["configs"][0][1]
        sigma, eta = complex(*cfg["sigma"]), complex(*cfg["eta"])
        # coefficients do not depend on the cutoffs; the W=12, Q=4 table is
        # accepted when its sum agrees with the determinant at t = 0.3
        reference.accepted_tau(sigma, eta, [0.3])
        table = reference.maya_table(sigma, eta)
        return {
            f"{q},{w}": [e.real, e.imag, c.real, c.imag]
            for (q, w), (e, c) in table.items()
            if abs(q) <= self.Q and w <= self.W
        }

    def check(self, item, outputs, ref):
        score = Score()
        for (_, cfg), (code, text) in zip(item["configs"], outputs):
            method = cfg["method"]
            if code != 0:
                score.fail(f"{method}: exit code {code}")
                continue
            try:
                _, rows = _csv_rows(text)
            except (ValueError, IndexError) as exc:
                score.fail(f"{method}: unparsable CSV: {exc}")
                continue
            seen = set()
            for row in rows:
                n, k = int(row["charge"]), int(row["weight"])
                # the instanton sum's charge n is the Maya charge -n
                key = f"{-n if method == 'nekrasov' else n},{k}"
                if key not in ref or (n, k) in seen:
                    score.fail(f"{method}: unexpected row ({n}, {k})")
                    continue
                seen.add((n, k))
                e_re, e_im, c_re, c_im = ref[key]
                c_ref = complex(c_re, c_im)
                if abs(complex(row["exponent_re"], row["exponent_im"]) - complex(e_re, e_im)) > 1e-12:
                    score.fail(f"{method}: exponent of ({n}, {k})")
                err = abs(complex(row["coeff_re"], row["coeff_im"]) - c_ref) / abs(c_ref)
                if not err <= TOL["coeff"]:
                    score.fail(f"{method}: coefficient ({n}, {k}) rel err {err:.2e}")
                score.rel_err = max(score.rel_err, err)
            if len(seen) != len(ref):
                score.fail(f"{method}: {len(seen)} rows, expected {len(ref)}")
        return score

    def perturb(self, outputs):
        (code, text), rest = outputs[0], outputs[1:]
        header, *rows = text.strip().splitlines()
        cells = rows[5].split(",")
        cells[4] = repr(float(cells[4]) * 1.01)
        scaled = "\n".join([header, *rows[:5], ",".join(cells), *rows[6:]]) + "\n"
        return {
            "value scaled by 1.01": [(code, scaled), *rest],
            "exit code 3": [(3, text), *rest],
            "last row lost": [(code, "\n".join([header, *rows[:-1]]) + "\n"), *rest],
        }


# ---------------------------------------------------------------------------
# CLI `check`: check-suite

_CHECK_LINE = re.compile(r"^(\w+)\s+(\S+)\s+<\s+(\S+)\s+(PASS|FAIL)$")
CHECK_NAMES = (
    "rank_one_a", "rank_one_d", "quadrature_modes_a", "quadrature_modes_d",
    "maya_vs_box_weights", "cauchy_vs_inst_weights", "three_route_agreement",
    "sigma_form_ode", "quasi_periodicity", "eta_half_periodicity",
    "maya_young_roundtrip_failures",
)


class CheckWorkload:
    name = "check-suite"
    why = (
        "check: the only user of j_sigma (65,536 calls per item), the continuous "
        "kernels, quadrature modes and the Maya/Young bijection"
    )
    tail_pct = 50
    #: the one check that measures truncation, not an identity: at the
    #: default W=6, Q=2 it can honestly exceed its 1e-6 (see README)
    TRUNCATION_CHECK = "sigma_form_ode"

    def make_item(self, rng):
        cfg = _base_config(*draw_params(rng))
        # the CLI defaults, spelled out for the reference
        cfg.update(t_grid={"start": 0.05, "stop": 0.05, "count": 1, "spacing": "linear"},
                   weight_cutoff=6, charge_cutoff=2)
        return {"configs": [("check", cfg)]}

    def reference(self, item):
        cfg = item["configs"][0][1]
        sigma, eta = complex(*cfg["sigma"]), complex(*cfg["eta"])
        table = reference.maya_table(sigma, eta, cfg["weight_cutoff"], cfg["charge_cutoff"])
        t = cfg["t_grid"]["start"]
        return {self.TRUNCATION_CHECK: reference.sigma_form_residual(table, t, sigma + 0.5)}

    def check(self, item, outputs, ref):
        """Every line well formed and its verdict right; identities PASS.

        sigma_form_ode may read FAIL when the reference residual of the
        same truncation confirms it; the exit code and the summary line
        must then say so.
        """
        score = Score()
        (code, text), = outputs
        lines = text.strip().splitlines()
        summary = bool(lines) and lines[-1] == "all checks passed"
        found, all_pass = {}, True
        for line in lines[:-1] if summary else lines:
            m = _CHECK_LINE.match(line.strip())
            if not m:
                score.fail(f"unparsable line {line!r}")
                continue
            name, value, tol, verdict = m.group(1), float(m.group(2)), float(m.group(3)), m.group(4)
            found[name] = value
            all_pass = all_pass and verdict == "PASS"
            if (verdict == "PASS") != (value < tol):
                score.fail(f"{name}: {value} vs {tol} reads {verdict}")
            if verdict != "PASS" and name != self.TRUNCATION_CHECK:
                score.fail(f"{name}: {value} vs {tol} FAIL")
            score.rel_err = max(score.rel_err, value / tol)
        if tuple(found) != CHECK_NAMES:
            score.fail(f"checks {tuple(found)}")
        if (code, summary) != ((0, True) if all_pass else (3, False)):
            score.fail(f"exit code {code}, summary line {summary}, all PASS {all_pass}")
        ode, ode_ref = found.get(self.TRUNCATION_CHECK), ref[self.TRUNCATION_CHECK]
        # the CLI prints 4 significant digits
        if ode is None or not abs(ode - ode_ref) <= 1e-3 * ode_ref + 1e-15:
            score.fail(f"sigma_form_ode {ode}, reference {ode_ref:.4e}")
        score.ode_max = ode
        return score

    def perturb(self, outputs):
        (code, text), = outputs
        return {
            "a PASS turned FAIL": [(code, text.replace("PASS", "FAIL", 1))],
            "exit code 3": [(3, text)],
            "last check lost": [(code, "\n".join(text.strip().splitlines()[:-2] + ["all checks passed"]) + "\n")],
        }


def _short_grid(rng):
    return {"start": rng.uniform(0.01, 0.2), "stop": rng.uniform(0.3, 0.45), "count": 2, "spacing": "linear"}


def _large_t_grid(rng):
    return {"start": 0.5, "stop": 20.0, "count": 3, "spacing": "log"}


WORKLOADS = {
    w.name: w
    for w in (
        TauWorkload(
            "grid-sweep",
            "tau, all methods, N=12 W=6 Q=2, 2 points in [0.01, 0.45]: the main user run; "
            "series tables rebuilt 6 times a row, so reuse and caching show here",
            60, "all", {"N_modes": 12, "weight_cutoff": 6, "charge_cutoff": 2}, _short_grid,
            FRED_TOL["small-t"],
        ),
        TauWorkload(
            "fredholm-large-t",
            "tau, fredholm N=24, log grid 0.5..20 where only the determinant converges: "
            "mode matrices and determinants, no partitions or nekrasov",
            60, "fredholm", {"N_modes": 24}, _large_t_grid, FRED_TOL["large-t"],
        ),
        SeriesWorkload(),
        CheckWorkload(),
    )
}


def item_rng(workload, seed, index):
    """Independent stream per (workload, seed, item index)."""
    return random.Random(f"{workload}/{seed}/{index}")

