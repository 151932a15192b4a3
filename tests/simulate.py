"""Synthetic data generators for calibration and power checks.

Used by the verification suite: estimator recovery, dispersion checks and
false-positive control.
"""

from __future__ import annotations

import numpy as np

from smellstab.stats.design import DesignMatrix


def nb2_draw(rng: np.random.Generator, mu: np.ndarray, theta: float) -> np.ndarray:
    """NB2 sample with mean mu and variance mu + mu^2/theta."""
    return rng.negative_binomial(theta, theta / (theta + mu))


def simulate_nb_glmm_design(
    n_groups: int,
    per_group: int,
    beta: list[float],
    sigma2: float,
    theta: float,
    seed: int,
    intercept: float = 1.0,
) -> tuple[DesignMatrix, np.ndarray]:
    """Random-intercept NB2 data; returns the design and the true u."""
    rng = np.random.default_rng(seed)
    n = n_groups * per_group
    p = len(beta)
    covars = rng.normal(size=(n, p))
    X = np.column_stack([np.ones(n), covars])
    groups = np.repeat(np.arange(n_groups), per_group)
    u = rng.normal(scale=np.sqrt(sigma2), size=n_groups)
    eta = intercept + covars @ np.asarray(beta) + u[groups]
    y = nb2_draw(rng, np.exp(eta), theta).astype(float)
    names = ["Intercept"] + [f"x{i + 1}" for i in range(p)]
    design = DesignMatrix(
        y=y,
        X=X,
        names=names,
        groups=groups.astype(np.int64),
        n_groups=n_groups,
        project_labels=[f"proj{j:03d}" for j in range(n_groups)],
        row_index=np.arange(n, dtype=np.int64),
    )
    return design, u


def simulate_observation_rows(
    n_projects: int,
    per_project: int,
    seed: int,
    theta: float = 2.0,
    sigma2: float = 0.2,
    iv_effects: dict[str, float] | None = None,
    base_rate: float = 1.0,
) -> list[dict]:
    """Joined dataset rows with the full variable set and NB2 outcomes.

    Under ``iv_effects = None`` the outcome depends only on the control
    variables (ClSize, #EffNei) and project intercepts: a pure-noise null
    for every smell IV.  ``iv_effects`` maps predictor names (applied on the
    model scale: log1p for counts, 0/1 for flags) to coefficients, for
    planted-signal datasets; keys ending in ``:ChS`` apply to ChS only,
    others to ChF only.
    """
    rng = np.random.default_rng(seed)
    iv_effects = iv_effects or {}
    rows: list[dict] = []
    for j in range(n_projects):
        project = f"proj{j:03d}"
        u_chf = rng.normal(scale=np.sqrt(sigma2))
        u_chs = rng.normal(scale=np.sqrt(sigma2))
        for i in range(per_project):
            cl_size = int(np.round(np.exp(rng.normal(4.0, 1.0)))) + 1
            n_eff_nei = int(rng.poisson(4))
            is_smelly = bool(rng.random() < 0.4)
            n_smell_foc = int(1 + rng.poisson(1.2)) if is_smelly else 0
            var_smell_foc = int(min(n_smell_foc, 1 + rng.integers(0, 3))) if is_smelly else 0
            has_smell_eff = bool(n_eff_nei > 0 and rng.random() < 0.5)
            n_smell_eff = int(1 + rng.poisson(2.0)) if has_smell_eff else 0
            var_smell_eff = int(min(n_smell_eff, 1 + rng.integers(0, 4))) if has_smell_eff else 0
            has_eff_coup = is_smelly and has_smell_eff
            has_eff_int = bool(has_eff_coup and rng.random() < 0.5)
            n_int = int(1 + rng.poisson(1.0)) if has_eff_int else 0
            inten = int(n_int + rng.poisson(1.5)) if has_eff_int else 0
            inten = max(inten, 1) if has_eff_int else 0
            values = {
                "IsSmelly": float(is_smelly),
                "#SmellFoc": np.log1p(n_smell_foc),
                "VarSmellFoc": np.log1p(var_smell_foc),
                "HasSmellEff": float(has_smell_eff),
                "#SmellEff": np.log1p(n_smell_eff),
                "VarSmellEff": np.log1p(var_smell_eff),
                "HasEffCoup": float(has_eff_coup),
                "HasEffInt": float(has_eff_int),
                "#EffSmellInt": np.log1p(n_int),
                "EffIntInten": np.log1p(inten),
                "ClSize": np.log1p(cl_size),
                "#EffNei": np.log1p(n_eff_nei),
            }
            eta_base = (
                np.log(base_rate) + 0.25 * values["ClSize"] + 0.15 * values["#EffNei"]
            )
            eta_chf = eta_base + u_chf
            eta_chs = eta_base + np.log(3.0) + u_chs
            for key, coef in iv_effects.items():
                name, _, dv = key.partition(":")
                if dv == "ChS":
                    eta_chs += coef * values[name]
                else:
                    eta_chf += coef * values[name]
            chf = int(nb2_draw(rng, np.array([np.exp(eta_chf)]), theta)[0])
            chs = int(nb2_draw(rng, np.array([np.exp(eta_chs)]), theta)[0])
            rows.append({
                "project": project,
                "class": f"{project}.C{i:04d}",
                "IsSmelly": "true" if is_smelly else "false",
                "#SmellFoc": n_smell_foc,
                "VarSmellFoc": var_smell_foc,
                "HasSmellEff": "true" if has_smell_eff else "false",
                "#SmellEff": n_smell_eff,
                "VarSmellEff": var_smell_eff,
                "HasEffCoup": "true" if has_eff_coup else "false",
                "HasEffInt": "true" if has_eff_int else "false",
                "#EffSmellInt": n_int,
                "EffIntInten": inten,
                "ClSize": cl_size,
                "#EffNei": n_eff_nei,
                "ChF": chf,
                "ChS": chs,
            })
    return rows
