"""The four benchmark workloads: inputs made from the workload seed, the timed
operation, and the check each operation's output must pass.

Every workload drives the program from one process with the runner's
`threads` left at 1: OpenBLAS already spreads the n = 3000 dense work over
the machine's cores.  The program sees only the configs and instances made
here; the workload seed never reaches it directly.

Why these four:
- haar_grid: the amp grid at n = 3000, where the O(n^3) Haar rotation of
  `ensemble.build_instance` is nearly all the cost.
- reuse_solve: one n = 3000 instance built in set-up, then AMP, the damped
  TAP solve and residuals on it.  Each operation applies the rotation about
  220 times and builds nothing, so a rotation that is cheaper to build but
  slower to apply loses here while it wins on haar_grid.
- gibbs_band_grid: the band grid at n = 12, 16, 20, which runs the Gray-code
  engine twice per instance, the full state listing for pair sums (n = 12)
  and Glauber at short per-site vectors.
- glauber_grid: Glauber at n = 200, where it is nearly all the cost.  It
  runs 50 sweeps after 10 of burn-in instead of the runner's 200 after 50:
  the same per-site loop at a quarter of the length, so a run holds 45 to 80
  operations and the fastest of them is a steady figure on a machine whose
  speed drifts.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from tapglass import amp, ensemble, experiments, fixed_point, spectral, tap

BETA = 0.15
FIELD_VALUE = 1.0
CHAINS = 64
N_CONFIGS = 256  # more than any run uses; operations wrap round if a run needs more

# Output-check tolerances.  The first two come from the acceptance tests
# (test_05 and test_08); the reuse_solve ones sit several orders above the
# measured values (rms gap 2e-10, residuals 1e-32 and 4e-20) and far below any
# real disagreement.
HAAR_GAP_FACTOR = 5.0              # m_norm_gap < 5 / sqrt(n)
BAND_GAP_MAX = 0.05                # band_gap_per_site
REUSE_RMS_GAP_MAX = 1e-6           # rms(m_tap - m_amp)
REUSE_RESIDUAL_MAX = 1e-12         # tap_residual of both profiles
GLAUBER_Z_MAX = 6.0                # |mean |m| gap| in standard errors
GLAUBER_SWEEPS = 50
GLAUBER_BURN_IN = 10


def _grid_seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(N_CONFIGS)]


class GridWorkload:
    """Each operation is one seed's grid through `run_experiment`, plus the
    content hash that the README's byte-identity claim rests on."""

    kind: str
    sizes: tuple[int, ...]
    extra: dict

    def setup(self, seed: int) -> list[experiments.ExperimentConfig]:
        return [
            experiments.config_from_dict({
                "kind": self.kind,
                "n": list(self.sizes),
                "beta": [BETA],
                "seeds": [grid_seed],
                "law": {"kind": "semicircle"},
                "field": {"kind": "constant", "value": FIELD_VALUE},
                **self.extra,
            })
            for grid_seed in _grid_seeds(seed)
        ]

    def op(self, state, i: int):
        rows = experiments.run_experiment(state[i % len(state)])
        return rows, experiments.content_hash(rows)

    @staticmethod
    def digest(output) -> str:
        return output[1]

    def check(self, state, i: int, output) -> str | None:
        rows, _ = output
        if [row.n for row in rows] != list(self.sizes):
            return f"expected rows for n = {self.sizes}, got {[row.n for row in rows]}"
        for row in rows:
            problem = f"error row: {row.error}" if row.error else self.check_row(state, i, row)
            if problem:
                return f"n = {row.n}: {problem}"
        return None

    def check_row(self, state, i: int, row) -> str | None:
        raise NotImplementedError


class HaarGrid(GridWorkload):
    kind = "amp"
    sizes = (3000,)
    extra = {"t_max": 8}

    def check_row(self, state, i, row):
        bound = HAAR_GAP_FACTOR / math.sqrt(row.n)
        gap = row.metrics["m_norm_gap"]
        if not gap < bound:
            return f"m_norm_gap {gap} >= {bound}"
        return None


class GibbsBandGrid(GridWorkload):
    """One operation is all three sizes for one seed.  Cell cost differs by
    size and, at n = 16, by instance, so a median over single cells would
    fall inside one size's spread and move with the seeds a run draws."""

    kind = "band"
    sizes = (12, 16, 20)
    extra = {"n_replicas": CHAINS}

    def check_row(self, state, i, row):
        gap = row.metrics["band_gap_per_site"]
        margin = row.metrics["zc_margin_per_site"]
        if not gap < BAND_GAP_MAX:
            return f"band_gap_per_site {gap} >= {BAND_GAP_MAX}"
        if not margin < 0:
            return f"zc_margin_per_site {margin} >= 0"
        return None


class GlauberGrid(GridWorkload):
    kind = "gibbs_mcmc"
    sizes = (200,)
    extra = {"n_replicas": CHAINS, "sweeps": GLAUBER_SWEEPS, "burn_in": GLAUBER_BURN_IN}

    def check_row(self, state, i, row):
        """Replica mean |m| against the TAP solution of the same instance.

        The instance is rebuilt from the runner's own stream seed, outside
        the timed loop.  Each chain's final spin at site i has variance
        1 - m_i^2, so the site average of |mean over chains| has standard
        error sqrt(mean(1 - m^2) / (chains n)).
        """
        cfg = state[i % len(state)]
        inst = ensemble.build_instance(
            row.n, row.beta, cfg.law, cfg.field,
            seed=experiments.stream_seed(row.seed, row.n, row.beta, experiments.STREAM_INSTANCE),
        )
        fp = fixed_point.solve_fixed_point(row.beta, cfg.law, cfg.field)
        sol = tap.solve_tap_damped(inst, fp)
        if not sol.converged:
            return "reference TAP solve did not converge"
        se = math.sqrt(float(np.mean(1.0 - sol.m**2)) / (CHAINS * row.n))
        z = (row.metrics["mean_abs_mag"] - float(np.mean(np.abs(sol.m)))) / se
        if not abs(z) < GLAUBER_Z_MAX:
            return f"mean_abs_mag is {z:.2f} standard errors from the TAP solution"
        return None


class ReuseSolve:
    """Set-up builds one instance; each operation runs AMP from a fresh start
    seed, the damped TAP solve, and the residual of both profiles."""

    n = 3000
    t_max = 50

    def setup(self, seed):
        inst_seed, start_seed = np.random.SeedSequence(seed).generate_state(2)
        law = spectral.semicircle()
        field = fixed_point.constant_field(FIELD_VALUE)
        inst = ensemble.build_instance(self.n, BETA, law, field, seed=int(inst_seed))
        fp = fixed_point.solve_fixed_point(BETA, law, field)
        starts = [int(s) for s in np.random.SeedSequence(int(start_seed)).generate_state(N_CONFIGS)]
        return inst, fp, starts

    def op(self, state, i):
        inst, fp, starts = state
        traj = amp.run_amp(inst, fp, self.t_max, starts[i % len(starts)])
        sol = tap.solve_tap_damped(inst, fp)
        return (traj.final.m, sol,
                tap.tap_residual(inst, fp, traj.final.m),
                tap.tap_residual(inst, fp, sol.m))

    @staticmethod
    def digest(output) -> str:
        m_amp, sol, r_amp, r_tap = output
        digest = hashlib.sha256(m_amp.tobytes())
        digest.update(sol.m.tobytes())
        digest.update(np.array([r_amp, r_tap, sol.iterations]).tobytes())
        return digest.hexdigest()

    def check(self, state, i, output):
        m_amp, sol, r_amp, r_tap = output
        if not sol.converged:
            return f"TAP solve did not converge in {sol.iterations} iterations"
        gap = math.sqrt(float(np.mean((sol.m - m_amp) ** 2)))
        if not gap < REUSE_RMS_GAP_MAX:
            return f"AMP and TAP profiles differ by rms {gap}"
        if not max(r_amp, r_tap) < REUSE_RESIDUAL_MAX:
            return f"TAP residuals too large: amp {r_amp}, tap {r_tap}"
        return None


WORKLOADS = {
    "haar_grid": HaarGrid(),
    "reuse_solve": ReuseSolve(),
    "gibbs_band_grid": GibbsBandGrid(),
    "glauber_grid": GlauberGrid(),
}
