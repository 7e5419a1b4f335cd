"""Independent reference implementations used to pin expected values.

Each oracle deliberately avoids the code paths it checks: the ridge solution
comes from plain gradient descent, and from scipy's ``cho_factor``/``cho_solve``
on the same primal or dual system, the ridge objective is evaluated term by term, the model searches fit every candidate from
scratch (one ``rvfl.fit``/``fit_edrvfl`` and one prediction each, one ridge fit
per regularization value in the linear baseline), the feature builds of a run
one pipeline candidate at a time, spectra from direct O(n^2) summation,
spectral peaks from a scan over runs of equal values, band edges from that scan
plus a Python ranking and one ``argmin`` per edge, filter banks from the
closed-form responses evaluated at every FFT bin, walk-forward band tails from
a full inverse FFT of every band of every window or from every band's
filtered spectrum, frozen tail taps from a
complex inverse FFT of the bank mirrored onto the full grid, and the
signed-rank null distribution from explicit sign enumeration.
"""

import itertools

import numpy as np
import scipy.linalg

from ewtforecast import edrvfl, harness, rvfl, walkforward
from ewtforecast.ewt import build_filter_bank, decompose
from ewtforecast.harness import CandidateOutcome, GridSearchResult, LayerwiseResult
from ewtforecast.series import WindowedDataset, embed, fit_scaler


def ridge_gd(H, Y, c_reg, tol=1e-9, max_iter=500_000):
    """Gradient-descent minimizer of (C/2)||H b - Y||^2 + (1/2)||b||^2."""
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    lip = c_reg * float(np.linalg.eigvalsh(H.T @ H)[-1]) + 1.0
    step = 1.0 / lip
    beta = np.zeros((H.shape[1], Y.shape[1]))
    for _ in range(max_iter):
        grad = c_reg * (H.T @ (H @ beta - Y)) + beta
        if np.abs(grad).max() < tol:
            break
        beta = beta - step * grad
    return beta


def cho_factor_solve(A, B):
    """Solve the symmetric positive-definite ``A X = B`` with scipy's
    ``cho_factor`` (upper triangle) and ``cho_solve``."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), B)


def ridge_cho_factor(H, Y, c_reg, primal):
    """Ridge weights from the primal ``(H'H + I/C) b = H'Y`` or the dual
    ``b = H'(HH' + I/C)^-1 Y``, both solved by ``cho_factor_solve``."""
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64).reshape(H.shape[0], -1)
    delta = 1.0 / c_reg
    if primal:
        return cho_factor_solve(H.T @ H + delta * np.eye(H.shape[1]), H.T @ Y)
    return H.T @ cho_factor_solve(H @ H.T + delta * np.eye(H.shape[0]), Y)


def ridge_objective(H, Y, beta, c_reg):
    """Value of the training objective (C/2)||H b - Y||^2 + (1/2)||b||^2 at ``beta``."""
    residual = H @ beta - Y
    return 0.5 * c_reg * float(np.sum(residual ** 2)) + 0.5 * float(np.sum(beta ** 2))


def sigmoid_formula(x):
    """The logistic function as the textbook ``1 / (1 + exp(-x))``."""
    return 1.0 / (1.0 + np.exp(-x))


# The activations as textbook formulas, each returning a new array.
ACTIVATION_FORMULAS = {
    "sigmoid": sigmoid_formula,
    "sign": np.sign,
    "relu": lambda x: np.maximum(0.0, x),
    "sine": np.sin,
    "radbas": lambda x: np.exp(-np.square(x)),
    "hardlim": lambda x: np.where(x <= 0.0, 1.0, 0.0),
    "tribas": lambda x: np.maximum(1.0 - np.abs(x), 0.0),
    "tanh": lambda x: 2.0 * sigmoid_formula(x) - 1.0,
    "selu": lambda x: 1.0507009873554805 * np.where(
        x > 0.0, x, 1.6732632423543772 * np.expm1(np.minimum(x, 0.0))),
}


def _pick(candidates, outcomes, rtol, prefer):
    """The winner ``harness._winner`` picks and its score, except that
    ``prefer`` wins when its score lies within ``rtol`` (relative) of the best
    one: the oracle then follows a search whose scores differ from its own by
    rounding at a tie. Raises ``harness._NoWinner`` when no candidate scored."""
    i = harness._winner(candidates, outcomes)
    if i is None:
        raise harness._NoWinner(outcomes)
    best, best_rmse = candidates[i], outcomes[i].val_rmse
    scores = {tuple(c): o.val_rmse for c, o in zip(candidates, outcomes)}
    score = scores.get(tuple(prefer)) if prefer is not None else None
    if score is not None and score <= best_rmse + rtol * abs(best_rmse):
        return type(candidates[0])(*prefer), score
    return best, best_rmse


def grid_search_per_candidate(space, train, val, base_seed=0, rtol=0.0, follow=None):
    """``harness.grid_search`` with one ``rvfl.fit`` and ``rvfl.predict`` per candidate.

    With ``follow``, a search result, the winner is ``follow.best`` when its
    score ties the best one within ``rtol``.
    """
    candidates = space.model_candidates("rvfl")
    if len(candidates) > 1 and not val.n_samples:
        raise ValueError(f"ranking requires validation rows (candidates: {len(candidates)})")
    outcomes, forecasts = [], []
    for p in candidates:
        forecast = None
        try:
            model = rvfl.fit(train.X, train.Y, harness._rvfl_config(p, base_seed))
            forecast = rvfl.predict(model, val.X)
            outcomes.append(CandidateOutcome(p._asdict(), harness._rmse(forecast, val.Y)))
        except (ValueError, RuntimeError) as exc:
            outcomes.append(CandidateOutcome(p._asdict(), None, str(exc)))
        forecasts.append(forecast)
    best, best_rmse = _pick(candidates, outcomes, rtol, follow and follow.best)
    return GridSearchResult(best, best_rmse, outcomes, forecasts[candidates.index(best)])


def layerwise_per_candidate(space, train, val, max_layers, base_seed=0, rtol=0.0, follow=None):
    """``harness.layerwise_grid_search`` with one ``fit_edrvfl`` of the whole stack
    and one ``ensemble_predict`` per candidate.

    With ``follow``, a search result, each stage picks ``follow``'s layer when
    its score ties the stage's best within ``rtol``, and a stage whose best
    score lies within ``rtol`` of the acceptance threshold is kept when
    ``follow`` kept it.
    """

    def evaluate(nodes, regs, shared):
        params = {"layer_nodes": list(nodes), "layer_regs": list(regs), **shared._asdict()}
        try:
            cfg = edrvfl.EdRvflConfig(
                n_layers=len(nodes), n_enhancement=nodes, regularization=regs,
                activation=shared.activation, input_scale=shared.input_scale,
                output_bias=shared.output_bias,
                seed=base_seed + shared.seed,
            )
            model = edrvfl.fit_edrvfl(train.X, train.Y, cfg)
            forecast = edrvfl.ensemble_predict(model, val.X)
            return CandidateOutcome(params, harness._rmse(forecast, val.Y)), forecast
        except (ValueError, RuntimeError) as exc:
            return CandidateOutcome(params, None, str(exc)), None

    def followed(depth):
        """``follow``'s stack of ``depth`` layers, if it has one."""
        if follow is None or len(follow.layer_nodes) < depth:
            return None
        return follow.layer_nodes[:depth], follow.layer_regs[:depth]

    stage1 = space.model_candidates("edrvfl")
    if (len(stage1) > 1 or max_layers > 1) and not val.n_samples:
        raise ValueError(f"ranking requires validation rows (candidates: {len(stage1)}, "
                         f"max_layers: {max_layers})")
    results = [evaluate((p.n_enhancement,), (p.regularization,), p) for p in stage1]
    leaderboard = [o for o, _ in results]
    shared, best_rmse = _pick(stage1, leaderboard, rtol, follow and follow.shared)
    nodes, regs = (shared.n_enhancement,), (shared.regularization,)
    forecast = results[stage1.index(shared)][1]
    history = [best_rmse]
    pairs = sorted(set(itertools.product(space.n_enhancement, space.regularization)))
    for depth in range(2, max_layers + 1):
        stage = [(nodes + (l,), regs + (c,)) for l, c in pairs]
        results = [evaluate(n, r, shared) for n, r in stage]
        leaderboard.extend(o for o, _ in results)
        scored = [(o.val_rmse, s, f) for s, (o, f) in zip(stage, results) if o.val_rmse is not None]
        if not scored:
            break
        rmse_l, (nodes_l, regs_l), forecast_l = min(scored, key=lambda t: t[:2])
        for score, s, f in scored:
            if s == followed(depth) and score <= rmse_l + rtol * rmse_l:
                rmse_l, (nodes_l, regs_l), forecast_l = score, s, f
        threshold = best_rmse * (1.0 - harness.MIN_RELATIVE_GAIN)
        if abs(rmse_l - threshold) <= rtol * threshold and follow is not None:
            keep = followed(depth) == (nodes_l, regs_l)
        else:
            keep = rmse_l <= threshold
        if not keep:
            break
        nodes, regs, best_rmse, forecast = nodes_l, regs_l, rmse_l, forecast_l
        history.append(best_rmse)
    return LayerwiseResult(nodes, regs, shared, best_rmse, tuple(history), leaderboard, forecast)


def ridge_config(regularization):
    """Plain ridge on the raw lags: direct links only, no bias."""
    return rvfl.RvflConfig(n_enhancement=0, regularization=regularization, direct_link=True,
                           output_bias=False, seed=0)


def linear_baseline_per_candidate(cfg, ts, i_train, i_val, lags, leaderboard):
    """``harness._linear_baseline`` with one ridge fit and prediction per (lags, C)."""
    h = cfg.horizon
    lag_candidates = [lags] if lags is not None else sorted(set(cfg.grid.lags))
    best = None
    for lag in lag_candidates:
        full = embed(ts, lag, h)
        targets = full.origin_indices + h
        train_idx = np.flatnonzero(targets < i_train)
        val_idx = np.flatnonzero((targets >= i_train) & (targets < i_val))
        if train_idx.size == 0:
            reason = (f"no tuning rows: first origin {lag - 1} reaches past the validation span"
                      if lag - 1 >= i_val - h else "no training rows inside the training span")
            leaderboard.append({"pipeline": None, "params": {"lags": lag}, "val_rmse": None,
                                "error": f"feature build failed: {reason}"})
            continue
        for reg in sorted(set(cfg.grid.regularization)):
            params = {"lags": lag, "regularization": reg}
            try:
                model = rvfl.fit(full.X[train_idx], full.Y[train_idx], ridge_config(reg))
                rmse = harness._rmse(rvfl.predict(model, full.X[val_idx]), full.Y[val_idx])
            except (ValueError, RuntimeError) as exc:
                leaderboard.append({"pipeline": None, "params": params, "val_rmse": None,
                                    "error": str(exc)})
                continue
            leaderboard.append({"pipeline": None, "params": params, "val_rmse": rmse,
                                "error": None})
            if best is None or (rmse, lag, reg) < best[0]:
                best = ((rmse, lag, reg), lag, reg, full)
    if best is None:
        raise RuntimeError("every pipeline candidate failed; the first: "
                           f"{leaderboard[0]['error']}")
    (rmse, _, _), lag, reg, full = best
    targets = full.origin_indices + h
    refit_end = i_val if cfg.refit_on_train_plus_validation else i_train
    model = rvfl.fit(full.X[targets < refit_end], full.Y[targets < refit_end],
                     ridge_config(reg))
    pred = rvfl.predict(model, full.X[targets >= i_val]).ravel()
    return pred, {"model_params": {"lags": lag, "regularization": reg}, "validation_rmse": rmse}


def validation_refit_forecast(cfg, build, model_info):
    """The chosen model refitted on the training rows (with a scaler fitted on
    them) and its forecast of the validation rows."""
    train_rows, val_rows = build.train_rows(), build.val_rows()
    scaler = None if cfg.scaler == "none" else fit_scaler(train_rows.X, cfg.scaler)
    params = harness.ModelParams(**model_info["model_params"])
    if cfg.family == "rvfl":
        model = rvfl.fit(train_rows.X, train_rows.Y, harness._rvfl_config(params, cfg.seed), scaler)
        return rvfl.predict(model, val_rows.X)
    ed_cfg = edrvfl.EdRvflConfig(
        n_layers=len(model_info["layer_nodes"]), n_enhancement=tuple(model_info["layer_nodes"]),
        regularization=tuple(model_info["layer_regs"]), activation=params.activation,
        input_scale=params.input_scale, output_bias=params.output_bias,
        seed=cfg.seed + params.seed,
    )
    model = edrvfl.fit_edrvfl(train_rows.X, train_rows.Y, ed_cfg, scaler)
    return edrvfl.ensemble_predict(model, val_rows.X)


def candidate_builds_one_by_one(cfg, ts, i_train, i_val):
    """``harness._candidate_builds`` with one ``_PipelineBuild`` per candidate,
    each building its own tuning rows through ``harness.build_walkforward_features``."""
    for params in cfg.grid.pipeline_candidates(cfg.pipeline):
        try:
            build = harness._PipelineBuild(ts, cfg.pipeline, params, cfg.horizon, cfg.window,
                                           i_train, i_val)
        except ValueError as exc:
            build = exc
        yield params, build


def build_walkforward_features_fft(ts, cfg, start, stop, frozen_boundaries=None):
    """``walkforward.build_walkforward_features`` one origin at a time through the
    full-FFT ``causal_decompose_at``, which inverse-transforms every band of
    every window.

    ``meta`` carries the builder's fallback and clipped-gamma counters, and
    the largest imaginary part those inverse FFTs discarded as
    ``max_imag_residue``.
    """
    frozen = frozen_boundaries
    if frozen is None and cfg.boundary_mode == walkforward.FROZEN_FROM_TRAIN:
        frozen = walkforward.freeze_boundaries(ts, cfg, start)
    values = ts.values
    rows, fallbacks, clipped, residue = [], 0, 0, 0.0
    for t in range(start, stop):
        cs = walkforward.causal_decompose_at(ts, t, cfg, frozen)
        rows.append(np.concatenate([values[t - cfg.lags + 1: t + 1], cs.tails.ravel()]))
        bank = build_filter_bank(cs.boundaries, cs.window, cfg.gamma)
        residue = max(residue, decompose(values[t - cs.window + 1: t + 1], bank).max_imag_residue)
        fallbacks += cs.boundaries.uniform_fallback
        clipped += bank.gamma_clipped
    if frozen is not None:
        fallbacks, clipped = frozen.uniform_fallback, bank.gamma_clipped
    origins = np.arange(start, stop)
    meta = {
        "fallback_count": int(fallbacks),
        "gamma_clipped_count": int(clipped),
        "max_imag_residue": residue,
    }
    return WindowedDataset(np.array(rows), values[origins + cfg.horizon].reshape(-1, 1),
                           origins, meta)


def adaptive_rows_per_band(ts, cfg, start, stop):
    """Adaptive ``walkforward.build_walkforward_features`` rows with every band
    formed: per origin, the bank's one-sided responses from
    ``ewt.build_filter_bank`` on the one-sided bins times the window's
    spectrum, as [real parts | imaginary parts], mapped to each band's tail by
    ``walkforward._tail_basis``.
    """
    rows = []
    for t in range(start, stop):
        width = cfg.window_at(t)
        window = ts.values[t - width + 1: t + 1]
        spectrum = np.fft.rfft(window)
        bank = build_filter_bank(walkforward.freeze_boundaries(ts, cfg, t), width, cfg.gamma)
        responses = bank.responses[:, :spectrum.size]
        parts = np.concatenate([responses * spectrum.real, responses * spectrum.imag], axis=1)
        tails = parts @ walkforward._tail_basis(width, cfg.lags)
        rows.append(np.concatenate([window[-cfg.lags:], tails.ravel()]))
    return np.array(rows)


def frozen_taps_ifft(bank, lags):
    """``walkforward._frozen_taps`` of a full-grid bank, through the complex
    inverse FFT of its mirrored responses, keeping the real part.

    Column ``k * lags + l`` holds ``h_k[(W - lags + l - j) mod W]`` over ``j``.
    """
    width = bank.signal_length
    impulse = np.fft.ifft(bank.responses, axis=1).real
    lag_of = (np.arange(width - lags, width) - np.arange(width)[:, None]) % width
    return impulse[:, lag_of].transpose(1, 0, 2).reshape(width, -1)


def dft_magnitude(x):
    """One-sided |DFT| by direct summation."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    bins = n // 2 + 1
    out = np.empty(bins)
    t = np.arange(n)
    for k in range(bins):
        out[k] = np.abs(np.sum(x * np.exp(-2j * np.pi * k * t / n)))
    return out


def local_maxima_loop(values):
    """Plateau-aware local maxima by scanning runs of equal values.

    Each flat run strictly above both neighbours counts once, at its center
    bin; edge runs need only their inner neighbour, and a run spanning every
    bin is no maximum.
    """
    n = len(values)
    out = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        left_ok = i == 0 or values[i - 1] < values[i]
        right_ok = j == n - 1 or values[j + 1] < values[i]
        spans_all = i == 0 and j == n - 1
        if left_ok and right_ok and not spans_all:
            out.append((i + j) // 2)
        i = j + 1
    return out


def detect_boundaries_loop(magnitudes, smoothed, signal_length, n_bands):
    """Band edges of one spectrum, one peak and one edge at a time.

    The ``n_bands`` highest local maxima of ``smoothed`` (ties to the lower
    bin) are kept, and each edge sits at the first minimum of ``magnitudes``
    strictly between two consecutive kept peaks. Fewer peaks than bands give
    the uniform split of (0, pi), flagged. Returns ``(omegas, fallback)``.
    """
    if n_bands == 1:
        return np.empty(0), False
    peaks = local_maxima_loop(smoothed)
    if len(peaks) < n_bands:
        return np.pi * np.arange(1, n_bands) / n_bands, True
    ranked = sorted(sorted(peaks, key=lambda p: (-smoothed[p], p))[:n_bands])
    bins = [lo + 1 + int(np.argmin(magnitudes[lo + 1:hi]))
            for lo, hi in zip(ranked[:-1], ranked[1:])]
    return 2.0 * np.pi * np.asarray(bins, dtype=np.float64) / signal_length, False


def filter_bank_full_grid(omegas, signal_length, gamma):
    """Responses of one bank with edges ``omegas`` at every bin of the full grid.

    ``gamma`` is used as given (no clipping). Bin k sits at
    ``|omega| = 2*pi*min(k, n - k)/n``.
    """
    n = signal_length
    idx = np.arange(n)
    aw = 2.0 * np.pi * np.minimum(idx, n - idx) / n
    w = np.asarray(omegas, dtype=np.float64)[:, None]
    x = np.clip((aw - (1.0 - gamma) * w) / (2.0 * gamma * w), 0.0, 1.0)
    arg = 0.5 * np.pi * (x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3))
    rising, falling = np.sin(arg) ** 2, np.cos(arg) ** 2
    return np.vstack([falling[:1], rising[:-1] * falling[1:], rising[-1:]])


def wilcoxon_exact_bruteforce(diff):
    """Two-sided exact signed-rank p-value by enumerating all sign patterns.

    Uses average ranks on tied absolute differences; p = min(1, 2 * P(W+ <= T))
    with T = min(W+, W-) under the enumerated null.
    """
    diff = np.asarray(diff, dtype=np.float64)
    diff = diff[diff != 0.0]
    n = diff.size
    ranks = _average_ranks(np.abs(diff))
    w_plus = ranks[diff > 0].sum()
    w_minus = ranks.sum() - w_plus
    t_obs = min(w_plus, w_minus)
    count = 0
    for signs in itertools.product((0.0, 1.0), repeat=n):
        if np.dot(ranks, signs) <= t_obs + 1e-12:
            count += 1
    p = min(1.0, 2.0 * count / 2.0 ** n)
    return t_obs, p


def _average_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
