"""Plain per-round reference implementations of the episode engine and
the fee walk, kept as test oracles for the trajectory merges in
``dynamech.mechanism``.

``reference_run_rounds`` plays one round at a time and samples each
allocation's move when it happens, one ``draw_pair`` and one
``sample_transition`` per allocation, on the ``streams`` object it is
given.  With a ``probe`` it also runs one replay of the fee walk: the
other agents are allocated as usual and the probed agent takes the
round when ``RentProbe.wins`` says so.  ``ReplayRentWalk`` integrates the
information rent by replaying the path once per piece (or per bisection
probe) on fresh streams.
"""

from __future__ import annotations

import math

import numpy as np

from dynamech import mechanism as mech
from dynamech.environments import sample_transition
from dynamech.gittins import allocate
from dynamech.rng import ExperienceStreams
from dynamech.virtual import dormancy_threshold, inverse_hazard, transform_or_dormant


def reference_run_rounds(
    env,
    runtime,
    transforms,
    theta,
    strategies,
    streams,
    horizon,
    *,
    monitored=False,
    track_prices=True,
    record_rounds=False,
    track_virtual=False,
    probe=None,
):
    k = env.k
    res = mech._EpisodeResult(k)
    agents = env.agents
    n_rho = [agent.public.n for agent in agents]
    true_e = [0] * k
    rho = [0] * k
    active = sorted(transforms)
    cur_theta_hat = [None] * k
    cur_table = [None] * k
    theta_bars = [agent.distribution.theta_bar for agent in agents]
    disc = 1.0
    for t in range(1, horizon + 1):
        theta_hats = list(theta)
        e_hats = list(true_e)
        for i in range(k):
            if not isinstance(strategies[i], mech.Truthful):
                rep = strategies[i].report(t, theta[i], true_e[i], theta_bars[i])
                theta_hats[i] = rep.theta_hat
                e_hats[i] = int(rep.e_hat)
        e_used = true_e if monitored else e_hats
        vals = []
        for i in active:
            th = theta_hats[i]
            if th != cur_theta_hat[i]:
                cur_theta_hat[i] = th
                cur_table[i] = runtime.index_flat(i, transforms[i], th)
            vals.append(cur_table[i][e_used[i] * n_rho[i] + rho[i]])
        w_local = allocate(vals)
        winner = active[w_local - 1] + 1 if w_local > 0 else 0
        if probe is not None:
            p = probe.agent
            level = vals[w_local - 1] if w_local > 0 else 0.0
            if probe.wins(level, true_e[p] * n_rho[p] + rho[p], t, disc):
                winner = p + 1
        payment = 0.0
        if winner > 0:
            wi = winner - 1
            s = true_e[wi] * n_rho[wi] + rho[wi]
            if track_prices:
                payment = mech.per_round_price(env, transforms, theta_hats, e_used, rho, wi, runtime)
                res.prices[wi] += disc * payment
            res.values[wi] += disc * mech._value_flat(env, wi, theta[wi])[s]
            if track_virtual:
                ih = inverse_hazard(agents[wi].distribution, theta[wi])
                virtual = mech._value_flat(env, wi, theta[wi]) - ih * mech._deriv_flat(env, wi, theta[wi])
                res.virtual += disc * virtual[s]
        if record_rounds:
            res.rounds.append(
                mech.RoundRecord(
                    t=t,
                    theta_hat=tuple(theta_hats),
                    e_hat=tuple(e_hats),
                    true_e=tuple(true_e),
                    rho=tuple(rho),
                    winner=winner,
                    payment=payment,
                )
            )
        if winner > 0:
            wi = winner - 1
            true_e[wi], rho[wi] = sample_transition(
                agents[wi], true_e[wi], rho[wi], *streams.draw_pair(wi)
            )
        res.winners.append(winner)
        disc *= env.delta
    return res


class RentProbe:
    """The probed agent's side of one replay: it takes a round iff its
    index beats ``level`` (the others' best, 0 if none beats the zero
    arm), or with a ``scale`` iff ``level / b < scale`` on the base
    table; ties go against it.  Records the rounds won, the discounted
    rent weight per public state and the largest critical scale."""

    def __init__(self, agent, table, scale, weights, n_rho):
        self.agent = agent
        self.table = table
        self.scale = scale
        self.weights = weights
        self.sums = [0.0] * n_rho
        self.times = []
        self.crit = -math.inf

    def wins(self, level, s, t, disc):
        b = self.table[s]
        if self.scale is None:
            if not b > level:
                return False
        else:
            if not b > 0.0:
                return False
            crit = level / b
            if not crit < self.scale:
                return False
            if crit > self.crit:
                self.crit = crit
        self.sums[s % len(self.sums)] += disc * self.weights[s]
        self.times.append(t)
        return True


class ReplayRentWalk(mech._RentWalk):
    """The rent walk by replays: every piece (and every bisection probe)
    replays the whole path on fresh streams with ``reference_run_rounds``."""

    def __init__(self, env, runtime, transforms, theta_hat, i, lo, horizon):
        super().__init__(env, runtime, transforms, theta_hat, i, lo, horizon)
        self.others_tr = {j: tr for j, tr in transforms.items() if j != i}
        self.probe_tables = {}

    def integrate(self, streams):
        def streams_of():
            return ExperienceStreams(streams.master_seed, streams.path_id, streams.purpose)

        if self.scale_hi is not None:
            return self._replay_scale_walk(streams_of)
        return self._replay_bisect_walk(streams_of)

    def _replay(self, z, table, scale, streams):
        probe = RentProbe(self.i, table, scale, self.weights, self.n_rho)
        theta = list(self.theta)
        theta[self.i] = z
        reference_run_rounds(
            self.env, self.runtime, self.others_tr, theta, [mech.Truthful()] * self.env.k,
            streams, self.horizon, track_prices=False, probe=probe,
        )
        return probe

    def _replay_scale_walk(self, streams_of):
        total = err = 0.0
        z_top, scale = self.hi, self.scale_hi
        above = None
        for replays in range(1, self.max_pieces + 1):
            probe = self._replay(z_top, self.base, scale, streams_of())
            sums = np.array(probe.sums)
            if above is not None:
                err += above[2] * abs(float((above[0] - sums) @ self._da(above[1])))
            if not probe.times:
                return total, err, replays
            crit = probe.crit
            z_bot, width = self._z_at_scale(crit, z_top)
            if not (crit < scale and z_bot <= z_top):
                raise RuntimeError("fee walk did not descend")
            total += float(sums @ (self._a(z_top) - self._a(z_bot)))
            if z_bot <= self.lo:
                return total, err, replays
            above = (sums, z_bot, width)
            z_top, scale = z_bot, crit
        raise self._too_many_pieces()

    def _probe_at(self, z, streams):
        table = self.probe_tables.get(z)
        if table is None:
            tr = transform_or_dormant(self.env, self.i, z)
            table = self.probe_tables[z] = self.runtime.build_table(self.i, tr, z).tolist()
        return self._replay(z, table, None, streams)

    def _replay_bisect_walk(self, streams_of):
        total = err = 0.0
        top = self._probe_at(self.hi, streams_of())
        z_top = c_top = self.hi
        bottom = None
        replays = 1
        for _ in range(self.max_pieces):
            if not top.times:
                return total, err, replays
            if bottom is None:
                bottom = self._probe_at(self.lo, streams_of())
                replays += 1
            sums = np.array(top.sums)
            if bottom.times == top.times:
                total += float(sums @ (self._a(c_top) - self._a(self.lo)))
                return total, err, replays
            a, b, below = self.lo, z_top, bottom
            while b - a > self.tol:
                mid = 0.5 * (a + b)
                probe = self._probe_at(mid, streams_of())
                replays += 1
                if probe.times == top.times:
                    b = mid
                else:
                    a, below = mid, probe
            c = 0.5 * (a + b)
            total += float(sums @ (self._a(c_top) - self._a(c)))
            err += abs(float((sums - np.array(below.sums)) @ (self._a(b) - self._a(a))))
            top, z_top, c_top = below, a, c
        raise self._too_many_pieces()


def replay_fee_walk(env, theta_hat, i, paths, seed, horizon, runtime, purpose="fee"):
    """(integral, error, pieces) per path by replays, as ``fee_quadrature``
    computes them."""
    theta_hat = [float(x) for x in theta_hat]
    transforms = mech._active_transforms(env, runtime, theta_hat)
    walk = ReplayRentWalk(
        env, runtime, transforms, theta_hat, i, dormancy_threshold(env, i), horizon
    )
    return [walk.integrate(ExperienceStreams(seed, j, purpose)) for j in range(paths)]
