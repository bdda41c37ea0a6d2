"""Independent reference implementations used to pin expected values.

Everything here shares no code path with the package: these are the oracles
the package is checked against, not wrappers around it. Most are written with
plain Python floats, lists, and the ``random``/``math`` modules. The guided
step references (``np_*``) use numpy 1-D arithmetic instead, one flattened
latent at a time: the package's step is compared with them bitwise, and only
the same float64 operations in the same order round the same way.

Run as a script to regenerate the pinned plain-CFG collapse reference:

    python tests/oracles.py
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

# The shipped default scenario, restated by hand.
MEANS = [[3.8, 0.0], [-2.0, 1.5], [1.5, 0.0]]
WEIGHTS_UNCOND = [0.9, 0.02, 0.08]
WEIGHTS_TARGET = [0.35, 0.65, 0.0]
SIGMA0 = 0.33
T_STEPS = 100
W_GUIDE = 1.5
DOMINANT = 0


def cosine_alpha_bar(T: int, s: float = 0.008) -> list[float]:
    f0 = math.cos((s / (1 + s)) * math.pi / 2) ** 2
    out = []
    for i in range(T):
        u = (i + 0.5) / T
        out.append(math.cos((u + s) / (1 + s) * math.pi / 2) ** 2 / f0)
    return out


def scalar_scale_diff(u: list[float], t: list[float], w: float) -> list[float]:
    """w * (t - u), one element at a time."""
    return [w * (ti - ui) for ui, ti in zip(u, t)]


def scalar_add(u: list[float], v: list[float]) -> list[float]:
    return [a + b for a, b in zip(u, v)]


def scalar_chain(eps_uncond, eps_text, eps_attr, w, w_attr, eta, gamma,
                 r_s, r_e, eps_stab, step_index, total):
    """Literal step-by-step chain of the guided update: CFG update, probe,
    drift as probe minus target, schedule, rectified projection, correction.
    Returns (eps_star, s, n, alpha, lam)."""
    delta_ref = scalar_scale_diff(eps_uncond, eps_text, w)
    eps_target = scalar_add(eps_uncond, delta_ref)
    eps_probe = scalar_add(eps_uncond, scalar_scale_diff(eps_uncond, eps_attr, w_attr))
    drift = [p - t for p, t in zip(eps_probe, eps_target)]
    pi = step_index / (total - 1)
    if pi < r_s or pi > r_e:
        alpha = 0.0
    else:
        pit = (pi - r_s) / (r_e - r_s)
        pit = min(max(pit, 0.0), 1.0)
        alpha = pit ** gamma
    s = math.fsum(a * d for a, d in zip(drift, delta_ref))
    n = math.fsum(a * a for a in drift) + eps_stab
    lam = alpha * eta * max(s, 0.0) / n
    delta_star = [d - lam * a for d, a in zip(delta_ref, drift)]
    eps_star = scalar_add(eps_uncond, delta_star)
    return eps_star, s, n, alpha, lam


def np_cfg_update(u: np.ndarray, t: np.ndarray, w: float) -> np.ndarray:
    return w * (t - u)


def np_drift_expanded(u: np.ndarray, t: np.ndarray, a: np.ndarray, w: float,
                      w_attr: float) -> np.ndarray:
    return w_attr * (a - u) - w * (t - u)


def np_residual(a: np.ndarray, d: np.ndarray) -> float:
    """Collinearity residual of drift a against the CFG update d."""
    na2 = float(a @ a)
    if na2 == 0.0:
        return 0.0
    nd2 = float(d @ d)
    if nd2 == 0.0:
        return 1.0
    coef = float(a @ d) / nd2
    orth = a - coef * d
    res = float(np.sqrt(orth @ orth)) / float(np.sqrt(na2))
    return min(res, 1.0)


def np_repulsion(a: np.ndarray, d: np.ndarray, alpha_t: float, eta: float,
                 eps_stab: float) -> tuple[float, float, float]:
    """(s_t, n_t, lambda_t) of drift a against the CFG update d."""
    s_t = float(a @ d)
    n_t = float(a @ a) + eps_stab
    return s_t, n_t, alpha_t * eta * max(s_t, 0.0) / n_t


def np_corrected_update(d: np.ndarray, lambda_t: float, a: np.ndarray) -> np.ndarray:
    if lambda_t == 0.0:
        return d.copy()
    return d - lambda_t * a


def np_guided_step(u, t, a, alpha_t, w, w_attr, eta, eps_stab, repel=True):
    """The DCR step of one flattened latent with CFG negative branch u;
    returns (eps_star, s_t, n_t, lambda_t, residual). With ``repel`` False
    lambda_t is reported as 0 and not applied."""
    delta_ref = np_cfg_update(u, t, w)
    drift = np_drift_expanded(u, t, a, w, w_attr)
    s_t, n_t, lam = np_repulsion(drift, delta_ref, alpha_t, eta, eps_stab)
    if not repel and lam != 0.0:
        lam = 0.0
    eps_star = u + np_corrected_update(delta_ref, lam, drift)
    return eps_star, s_t, n_t, lam, np_residual(drift, delta_ref)


def np_scheduler_step(eps: np.ndarray, t: int, x: np.ndarray, alpha_bar,
                      deterministic: bool, noise=None) -> np.ndarray:
    """One reverse transition x_t -> x_{t-1} with every scalar derived from
    alpha_bar at the call, in the operand order the package's scheduler
    step keeps."""
    ab_t, ab_prev = alpha_bar[t], alpha_bar[t - 1]
    if deterministic:
        x0_hat = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
        return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps
    alpha_t = ab_t / ab_prev
    beta_t = 1.0 - alpha_t
    mean = (x - beta_t / np.sqrt(1.0 - ab_t) * eps) / np.sqrt(alpha_t)
    if t == 1:
        return mean
    var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
    return mean + np.sqrt(var) * noise


def _posterior_mean(x: list[float], ab: float, weights: list[float]) -> list[float]:
    v = ab * SIGMA0 * SIGMA0 + (1.0 - ab)
    sq_ab = math.sqrt(ab)
    logr = []
    for k, m in enumerate(MEANS):
        if weights[k] <= 0.0:
            logr.append(-1e300)
            continue
        d2 = sum((xi - sq_ab * mi) ** 2 for xi, mi in zip(x, m))
        logr.append(math.log(weights[k]) - d2 / (2.0 * v))
    top = max(logr)
    r = [math.exp(lv - top) for lv in logr]
    z = sum(r)
    r = [rv / z for rv in r]
    shrink = sq_ab * SIGMA0 * SIGMA0 / v
    out = [0.0, 0.0]
    for k, m in enumerate(MEANS):
        for j in range(2):
            out[j] += r[k] * (m[j] + shrink * (x[j] - sq_ab * m[j]))
    return out


def _epsilon(x: list[float], ab: float, weights: list[float]) -> list[float]:
    pm = _posterior_mean(x, ab, weights)
    sq_ab = math.sqrt(ab)
    sq_1m = math.sqrt(1.0 - ab)
    return [(xi - sq_ab * pi) / sq_1m for xi, pi in zip(x, pm)]


def plain_cfg_collapse(n_traj: int, seed: int) -> float:
    """Plain-CFG ancestral sampling on the default scenario; returns the
    fraction of trajectories ending nearest the dominant mode."""
    ab = cosine_alpha_bar(T_STEPS)
    rng = random.Random(seed)
    collapsed = 0
    for _ in range(n_traj):
        x = [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
        for i in range(T_STEPS - 1):
            t = T_STEPS - 1 - i
            e_u = _epsilon(x, ab[t], WEIGHTS_UNCOND)
            e_t = _epsilon(x, ab[t], WEIGHTS_TARGET)
            eps = [u + W_GUIDE * (tv - u) for u, tv in zip(e_u, e_t)]
            ab_t, ab_prev = ab[t], ab[t - 1]
            alpha_t = ab_t / ab_prev
            beta_t = 1.0 - alpha_t
            mean = [(xi - beta_t / math.sqrt(1.0 - ab_t) * ei) / math.sqrt(alpha_t)
                    for xi, ei in zip(x, eps)]
            if t == 1:
                x = mean
            else:
                var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
                sd = math.sqrt(var)
                x = [mi + sd * rng.gauss(0.0, 1.0) for mi in mean]
        dists = [sum((xi - mi) ** 2 for xi, mi in zip(x, m)) for m in MEANS]
        if dists.index(min(dists)) == DOMINANT:
            collapsed += 1
    return collapsed / n_traj


def weighted_posterior_mean_mc(x_t, ab, weights, n_samples, seed):
    """Brute-force E[x0 | x_t] by simulating the forward kernel: draw x0 from
    the channel mixture and weight by the exact noising likelihood. Returns
    (estimate, standard_error) per dimension."""
    rng = random.Random(seed)
    sq_ab = math.sqrt(ab)
    two_var = 2.0 * (1.0 - ab)
    num = [0.0, 0.0]
    den = 0.0
    # accumulate second moments for the self-normalized SE
    samples = []
    for _ in range(n_samples):
        u = rng.random()
        acc = 0.0
        k = 0
        for j, wj in enumerate(weights):
            acc += wj
            if u <= acc:
                k = j
                break
        x0 = [MEANS[k][0] + SIGMA0 * rng.gauss(0.0, 1.0),
              MEANS[k][1] + SIGMA0 * rng.gauss(0.0, 1.0)]
        d2 = sum((xi - sq_ab * x0i) ** 2 for xi, x0i in zip(x_t, x0))
        w = math.exp(-d2 / two_var)
        num[0] += w * x0[0]
        num[1] += w * x0[1]
        den += w
        samples.append((w, x0))
    est = [num[0] / den, num[1] / den]
    se = []
    for j in range(2):
        var = sum((w * (x0[j] - est[j])) ** 2 for w, x0 in samples) / (den * den)
        se.append(math.sqrt(var))
    return est, se


def write_traces_jsonl(traces, path, manifest_ref=None) -> None:
    """Reference dcr-trace@1 writer: one json.dumps call per record, built
    from the TraceRecord objects of each trace's records."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema": "dcr-trace@1", "manifest": manifest_ref}
        fh.write(json.dumps(header) + "\n")
        for trace in traces:
            for rec in trace.records:
                row = {"trajectory_id": trace.trajectory_id, "step": rec.step,
                       "alpha_t": rec.alpha_t, "lambda_t": rec.lambda_t,
                       "s_t": rec.s_t, "residual": rec.residual}
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"trajectory_id": trace.trajectory_id,
                                 "final": trace.final.tolist()}) + "\n")


def read_traces_jsonl(path) -> tuple[dict, list[dict]]:
    """Reference dcr-trace@1 reader: one json.loads call per line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


if __name__ == "__main__":
    frac = plain_cfg_collapse(4000, seed=20260808)
    print(f"plain-CFG collapse oracle (n=4000): {frac:.6f}")
