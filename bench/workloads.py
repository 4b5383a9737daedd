"""The four workloads: seeded inputs, one job function per job, and the output checks.

A workload builds a fixed list of jobs from its seed.  A job returns True when
its output checks out, False for one of the two outcomes counted as failed
jobs (a self-test false negative on a storability-d set-up, an EB channel left
uncertified), and raises ``WrongOutput`` for anything else.
"""

import contextlib
import hashlib
import io
import json
import os
from collections import Counter

import numpy as np

import oracles as orc

EB_VERDICT = "certified-EB-implementable"


class WrongOutput(Exception):
    """The program returned an output that the benchmark's own computation refutes."""


def expect(ok, what):
    if not ok:
        raise WrongOutput(what)


def close(a, b, tol, what):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    expect(err <= tol, f"{what}: max deviation {err:.3e} > {tol:.1e}")


class Workload:
    def __init__(self, cm, seed, workdir):
        self.cm = cm
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.digest = orc.InputDigest()
        self.counts = Counter()
        self.jobs = []  # (label, fn)
        self.build()

    def build(self):
        raise NotImplementedError


class TomoQudit(Workload):
    """Full tomography at d=6; nearly all time in the d^6 operator, scenario and frame loops."""

    D = 6
    SETUPS = 12
    # Linear inversion loses about cond(states) * cond(effects) * eps.
    TOL_PER_COND = 64 * np.finfo(float).eps

    def build(self):
        cm, d, rng = self.cm, self.D, self.rng
        basis = cm.bloch_basis(d)
        for i in range(self.SETUPS):
            rhos = [orc.random_density(rng, d) for _ in range(d * d)]
            effects = orc.random_povm(rng, d, d * d)
            kraus = orc.random_kraus(rng, d, d, int(rng.integers(1, 5)))
            self.digest.add(*rhos, *effects, *kraus)
            choi = orc.choi_from_kraus(kraus)
            ref_cprime = orc.born_with_channel(choi, rhos, effects)
            cond = orc.condition_number(rhos) * orc.condition_number(effects)
            states = [cm.state_from_matrix(basis, r) for r in rhos]
            povm = cm.validate_povm(effects)
            self.jobs.append((f"tomo-{i}", self._job(basis, states, povm, kraus, choi, ref_cprime, cond)))

    def _job(self, basis, states, povm, kraus, choi, ref_cprime, cond):
        cm = self.cm
        tol = self.TOL_PER_COND * cond * max(1.0, float(np.linalg.norm(choi)))

        def run():
            channel = cm.channel_from_kraus(kraus, basis, basis)
            cprime = cm.comm_matrix_with_channel(cm.Scenario(states=states, povm=povm, channel=channel))
            frame = cm.build_frame(states, povm, basis, basis)
            rec = cm.reconstruct_channel(frame, cprime)
            close(cprime.entries, ref_cprime, 1e-12, "C' against tr(sum K rho K^dag M)")
            close(rec.choi, choi, tol, "reconstructed Choi against Kraus Choi")
            return True

        return run


class SelftestGauge(Workload):
    """reconstruct_up_to_gauge on rank-1 set-ups whose storability is exactly d.

    The set-ups are a fixed panel, each drawn from its own generator seed, so
    that the self-test sees the same matrices in every run: its cost does not
    depend on --seed, and neither does its known false negative (the last
    qutrit set-up), so the share of failed jobs is the same in every run.
    The seed draws the channels that the gauge inversion reconstructs.
    """

    # (d, outcomes, generator seed of the set-up)
    SETUPS = tuple((2, n, s) for s, n in enumerate((4, 5, 6) * 8)) + (
        (3, 9, 0),
        (3, 10, 0),
        (3, 9, 4),  # Gram residual about 2e-3 with the default 32 restarts: a false negative
    )
    TOL = 1e-6
    CHOI_TOL_PER_COND = 1e-8

    def build(self):
        for d, n, setup_seed in self.SETUPS:
            vecs, weights = orc.rank1_setup(np.random.default_rng(setup_seed), d, n)
            kraus = orc.random_kraus(self.rng, d, d, int(self.rng.integers(1, d * d + 1)))
            self.digest.add(vecs, weights, *kraus)
            self.jobs.append((f"gauge-d{d}-n{n}-s{setup_seed}", self._job(d, vecs, weights, kraus)))

    def _job(self, d, vecs, weights, kraus):
        cm = self.cm
        errors = cm.errors
        rhos = [orc.projector(v) for v in vecs]
        effects = [a * r for a, r in zip(weights, rhos)]
        choi = orc.choi_from_kraus(kraus)
        c_ref = orc.born(rhos, effects)
        cp_ref = orc.born_with_channel(choi, rhos, effects)
        complete = orc.numerical_rank(c_ref) == d * d
        c, cprime = cm.CommMatrix(entries=c_ref), cm.CommMatrix(entries=cp_ref)
        overlaps = np.abs(vecs.conj() @ vecs.T) ** 2
        choi_eigs = np.linalg.eigvalsh(choi)
        # The inversion through the canonical frame amplifies the fit error by
        # the frame's conditioning, which the gauge leaves unchanged.
        choi_tol = self.CHOI_TOL_PER_COND * orc.condition_number(rhos) * orc.condition_number(effects)

        def run():
            try:
                est = cm.reconstruct_up_to_gauge(c, cprime, d)
            except errors.NotInformationallyCompleteError:
                expect(not complete, "rank(C) = d^2 but reported incomplete")
                return True
            except errors.NotSelfTestableError:
                expect(complete, "incomplete set-up reported as not self-testable")
                return False
            expect(complete, "rank-deficient C accepted for gauge tomography")
            cert = est.certificate
            close(cert.overlap_matrix(), overlaps, self.TOL, "certified squared overlaps")
            close(cert.canonical_weights, weights, self.TOL, "certified weights")
            close(np.linalg.eigvalsh(est.channel.choi), choi_eigs, choi_tol, "Choi eigenvalues")
            canon = [orc.projector(v) for v in cert.canonical_vectors]
            rebuilt = orc.born_with_channel(
                est.channel.choi, canon, [a * r for a, r in zip(cert.canonical_weights, canon)]
            )
            close(rebuilt, cp_ref, self.TOL, "C' rebuilt from the canonical set-up")
            return True

        return run


class EbSearch(Workload):
    """eb_certificate(C, C', 2, l_max=4) on EB and non-EB qubit channels.

    PPT of the true Choi matrix is the oracle: for qubit channels it is the
    same as being entanglement breaking.  The seed draws the unitary
    channels; the other channels are a fixed panel.  One search costs 0.02 to
    5 s depending on the channel, and a run holds about 25 searches: with
    channels of every kind drawn from the seed, five runs spread by 12%
    (median) and 38% (throughput), quartile distance over median, from the
    draw alone.
    A fixed panel also fixes which EB channels the search certifies, so the
    share of failed jobs cannot change with the seed.
    """

    PANEL_SEED = 2025
    KINDS = ("unitary", "measure-prepare", "depolarizing-eb", "measure-prepare",
             "depolarizing-not-eb", "stinespring")
    COPIES = 2  # channels of each kind per set-up and round

    def build(self):
        cm = self.cm
        panel = np.random.default_rng(self.PANEL_SEED)
        basis = cm.bloch_basis(2)
        per_setup = []
        for setup_name, (rhos, effects) in (("sic", orc.sic_setup()), ("six", orc.six_state_setup())):
            states = [cm.state_from_matrix(basis, r) for r in rhos]
            c = cm.comm_matrix(states, cm.validate_povm(effects))
            jobs = []
            for copy in range(self.COPIES):
                for kind in self.KINDS:
                    choi = self._channel(kind, panel)
                    self.digest.add(choi)
                    cprime = orc.born_with_channel(choi, rhos, effects)
                    jobs.append((f"eb-{setup_name}-{kind}-{copy}", self._job(c, cprime, choi)))
            per_setup.append(jobs)
        # Interleave the two set-ups so that every prefix mixes them.
        self.jobs = [j for pair in zip(*per_setup) for j in pair]

    def _channel(self, kind, panel):
        if kind == "unitary":
            return orc.choi_from_kraus([orc.random_unitary(self.rng, 2)])
        if kind == "depolarizing-eb":
            return orc.choi_depolarizing(2, panel.uniform(0.7, 1.0))
        if kind == "depolarizing-not-eb":
            return orc.choi_depolarizing(2, panel.uniform(0.0, 0.6))
        if kind == "measure-prepare":
            l = int(panel.integers(2, 5))
            effects = orc.random_povm(panel, 2, l, rank=int(panel.integers(1, 3)))
            return orc.choi_measure_prepare(effects, [orc.random_density(panel, 2) for _ in range(l)])
        return orc.choi_from_kraus(orc.random_kraus(panel, 2, 2, int(panel.integers(2, 5))))

    def _job(self, c, cprime_ref, choi):
        cm = self.cm
        cprime = cm.CommMatrix(entries=cprime_ref)
        eb = orc.is_ppt(choi)

        def run():
            cert = cm.eb_certificate(c, cprime, 2, l_max=4)
            certified = cert.verdict == EB_VERDICT
            if certified:
                expect(eb, "certificate issued for a channel that is not PPT")
                check_eb_factors(cert.factor_a, cert.factor_b, cert.residual_tol, cprime_ref)
            if eb:
                self.counts["eb.inputs"] += 1
                self.counts["eb.certified"] += int(certified)
            return certified or not eb

        return run


def check_eb_factors(a, b, residual_tol, cprime):
    a, b = np.asarray(a), np.asarray(b)
    expect(a.min() >= -1e-12 and b.min() >= -1e-12, "negative entries in the EB factors")
    close(a.sum(axis=1), 1.0, 1e-9, "row sums of factor A")
    close(b.sum(axis=1), 1.0, 1e-9, "row sums of factor B")
    residual = float(np.linalg.norm(cprime - a @ b))
    expect(residual <= residual_tol, f"A B misses C' by {residual:.3e}")


class CliReport(Workload):
    """In-process ``commat`` commands with --out, over fixtures and seeded C' files."""

    D6 = 6

    def build(self):
        rng, wd = self.rng, self.workdir
        self.gamma = float(rng.uniform(0.1, 0.9))
        self.p = float(rng.uniform(0.1, 0.9))
        sic_rhos, sic_effects = orc.sic_setup()
        self.choi_ad = orc.choi_from_kraus(orc.amplitude_damping_kraus(self.gamma))
        self.choi_dep = orc.choi_depolarizing(2, self.p)
        d = self.D6
        rhos = [orc.random_density(rng, d) for _ in range(d * d)]
        effects = orc.random_povm(rng, d, d * d)
        kraus = orc.random_kraus(rng, d, d, int(rng.integers(1, 5)))
        self.digest.add(np.array([self.gamma, self.p]), *rhos, *effects, *kraus)
        self.choi6 = orc.choi_from_kraus(kraus)
        self.tol6 = TomoQudit.TOL_PER_COND * orc.condition_number(rhos) * orc.condition_number(effects)
        self.tol6 *= max(1.0, float(np.linalg.norm(self.choi6)))

        self.path = {k: os.path.join(wd, k + ".json") for k in ("sic", "trine", "six", "rand6")}
        self._write_cprime("cp_ad", orc.born_with_channel(self.choi_ad, sic_rhos, sic_effects))
        self._write_cprime("cp_dep", orc.born_with_channel(self.choi_dep, sic_rhos, sic_effects))
        self._write_cprime("cp6", orc.born_with_channel(self.choi6, rhos, effects))
        self._write_json(self.path["rand6"], {
            "schema": "commat/1", "dim_in": d, "dim_out": d, "repeat": 1, "channel": None,
            "states": [orc.matrix_json(r) for r in rhos],
            "povm": [orc.matrix_json(e) for e in effects],
        })
        self.seen = {}

        p = self.path
        commands = [
            ("fixtures-sic", ["fixtures", "sic-qubit", "--out", p["sic"]], self._check_fixture_sic),
            ("fixtures-trine", ["fixtures", "d3-trine", "--out", p["trine"]], self._check_fixture_trine),
            ("fixtures-six", ["fixtures", "eb-six-state", "--out", p["six"]], self._check_fixture_six),
            ("analyze-sic", ["analyze", "--scenario", p["sic"]], self._check_analyze_sic),
            ("analyze-trine", ["analyze", "--scenario", p["trine"]], self._check_analyze_trine),
            ("analyze-six", ["analyze", "--scenario", p["six"]], self._check_analyze_six),
            ("tomo-full", ["tomography", "--mode", "full", "--scenario", p["sic"],
                           "--cprime", p["cp_ad"]], self._check_tomo_full),
            ("tomo-unital", ["tomography", "--mode", "unital", "--scenario", p["sic"],
                             "--cprime", p["cp_dep"]], self._check_tomo_unital),
            ("tomo-gauge", ["tomography", "--mode", "gauge", "--scenario", p["sic"],
                            "--cprime", p["cp_ad"]], self._check_tomo_gauge),
            ("tomo-full-d6", ["tomography", "--mode", "full", "--scenario", p["rand6"],
                              "--cprime", p["cp6"]], self._check_tomo_d6),
            ("unitality-dep", ["properties", "--check", "unitality", "--scenario", p["sic"],
                               "--cprime", p["cp_dep"]], self._check_unital(self.choi_dep)),
            ("unitality-ad", ["properties", "--check", "unitality", "--scenario", p["sic"],
                              "--cprime", p["cp_ad"]], self._check_unital(self.choi_ad)),
            ("witness-trine", ["properties", "--check", "witness", "--scenario", p["trine"]],
             self._check_witness),
            ("eb-six", ["properties", "--check", "eb", "--scenario", p["six"]], self._check_eb),
        ]
        for label, argv, check in commands:
            self.jobs.append((label, self._job(label, argv, check)))

    def _write_json(self, path, doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def _write_cprime(self, name, entries):
        self.path[name] = os.path.join(self.workdir, name + ".json")
        self._write_json(self.path[name], {"schema": "commat/1", "comm_matrix": orc.matrix_json(entries)})

    def _job(self, label, argv, check):
        from commat import cli

        fixtures = argv[0] == "fixtures"
        out = os.path.join(self.workdir, f"out-{label}.json")
        inputs = [argv[i + 1] for i, a in enumerate(argv) if a in ("--scenario", "--cprime")]
        argv = argv if fixtures else argv + ["--out", out]

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            expect(code == 0, f"{label}: exit code {code}: {stderr.getvalue().strip()}")
            # fixtures writes the scenario to --out and its envelope to stdout.
            text = stdout.getvalue() if fixtures else _read(out)
            expect(self.seen.setdefault(label, text) == text, f"{label}: output differs on repeat")
            result = None
            if text or not fixtures:
                env = json.loads(text)
                expect(env.get("schema") == "commat-report/1", f"{label}: schema {env.get('schema')!r}")
                digests = {v["path"]: v["sha256"] for v in env["inputs"].values()}
                for path in inputs:
                    expect(digests.get(path) == _sha256(path), f"{label}: input digest of {path}")
                result = env["result"]
            check(result)
            return True

        return run

    # --------------------------------------------------------------- checks

    def _scenario_matrices(self, name):
        doc = json.loads(_read(self.path[name]))
        rhos = [orc.matrix_from_json(m) for m in doc["states"]]
        effects = [orc.matrix_from_json(m) for m in doc["povm"]]
        return doc, rhos, effects

    def _check_fixture_sic(self, result):
        _, rhos, effects = self._scenario_matrices("sic")
        close(orc.born(rhos, effects), orc.closed_form_dist(4, 0.5), 1e-12, "sic-qubit C = D_{4,1/2}")

    def _check_fixture_trine(self, result):
        _, rhos, effects = self._scenario_matrices("trine")
        close(orc.born(rhos, effects), orc.closed_form_dist(3, 1.0 / 3.0), 1e-12, "d3-trine C = D_{3,1/3}")

    def _check_fixture_six(self, result):
        doc, rhos, effects = self._scenario_matrices("six")
        close(orc.born(rhos, effects), orc.six_state_c(), 1e-12, "six-state C")
        ch = doc["channel"]
        choi = orc.choi_measure_prepare(
            [orc.matrix_from_json(m) for m in ch["povm"]], [orc.matrix_from_json(m) for m in ch["states"]]
        )
        close(orc.born_with_channel(choi, rhos, effects), orc.six_state_cprime(), 1e-12, "six-state C'")

    def _check_analysis(self, result, c_ref, rank):
        close(orc.matrix_from_json(result["comm_matrix"]).real, c_ref, 1e-12, "analyze C")
        expect(result["rank"] == rank, f"rank {result['rank']} != {rank}")
        close(result["storability"], orc.storability(c_ref), 1e-12, "storability")
        expect(result["self_test"]["passes"] is True, "self-test of a storability-d fixture")

    def _check_analyze_sic(self, result):
        self._check_analysis(result, orc.closed_form_dist(4, 0.5), 4)

    def _check_analyze_trine(self, result):
        self._check_analysis(result, orc.closed_form_dist(3, 1.0 / 3.0), 3)

    def _check_analyze_six(self, result):
        self._check_analysis(result, orc.six_state_c(), 4)
        close(orc.matrix_from_json(result["comm_matrix_with_channel"]).real, orc.six_state_cprime(),
              1e-12, "analyze C'")

    def _choi(self, result):
        return orc.matrix_from_json(result["channel"]["choi"])

    def _check_tomo_full(self, result):
        close(self._choi(result), self.choi_ad, 1e-12, "full tomography of amplitude damping")

    def _check_tomo_unital(self, result):
        close(self._choi(result), self.choi_dep, 1e-12, "unital tomography of depolarizing")

    def _check_tomo_gauge(self, result):
        expect(result["self_test"]["passes"] is True, "gauge self-test of sic-qubit")
        close(np.linalg.eigvalsh(self._choi(result)), np.linalg.eigvalsh(self.choi_ad), 1e-6,
              "gauge tomography Choi eigenvalues")

    def _check_tomo_d6(self, result):
        close(self._choi(result), self.choi6, self.tol6, "d=6 full tomography")

    def _check_unital(self, choi):
        expected = "unital" if orc.is_unital(choi, 2) else "non-unital"

        def check(result):
            verdict = result["verdict"]["verdict"]
            expect(verdict == expected, f"unitality verdict {verdict!r} != {expected!r}")

        return check

    def _check_witness(self, result):
        _, rhos, effects = self._scenario_matrices("trine")
        c1 = orc.born_with_channel(orc.matrix_from_json(result["phi1"]["choi"]), rhos, effects)
        c2 = orc.born_with_channel(orc.matrix_from_json(result["phi2"]["choi"]), rhos, effects)
        close(c1, c2, 1e-10, "witness pair statistics")
        gap = np.linalg.norm(orc.matrix_from_json(result["phi1"]["choi"])
                             - orc.matrix_from_json(result["phi2"]["choi"]))
        expect(gap > 1e-6, "witness channels coincide")

    def _check_eb(self, result):
        cert = result["certificate"]
        certified = cert["verdict"] == EB_VERDICT
        self.counts["eb.inputs"] += 1
        self.counts["eb.certified"] += int(certified)
        expect(certified, "six-state realization not certified")
        check_eb_factors(orc.matrix_from_json(cert["factor_a"]).real,
                         orc.matrix_from_json(cert["factor_b"]).real,
                         cert["residual_tol"], orc.six_state_cprime())


def _read(path):
    with open(path) as fh:
        return fh.read()


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


WORKLOADS = {
    "tomo-qudit": TomoQudit,
    "selftest-gauge": SelftestGauge,
    "eb-search": EbSearch,
    "cli-report": CliReport,
}
