"""The standing mutant kill matrix: each wrong formula fails the builtins named for it.

Every mutant is a monkeypatch at the import site the studies call, and each
row names the gamma builtins that must fail it with a fitted R^2 at least
0.02 below the 0.98 gate, so that a check that loses a mutant fails here
rather than eroding quietly.
"""

import pytest

from shellgamma import fields, kinematics, recovery3d
from shellgamma.studies import load_config, run_study

# the builtins that complete the kill matrix, with their limits I: plate-gamma
# at kappa = 0 with e_h = h^6, the bending-only limit, and plate-gamma and the
# cylinder with a varying thickness profile
KILL_SCENES = {
    "plate-bending-gamma": 10.82323234,
    "plate-thick-gamma": 27.85196555,
    "cylinder-thick-gamma": 0.6053233015,
}


def _scaled_d0(build_d_fields):
    def mutant(*args):
        d0, d1 = build_d_fields(*args)
        return 0.9 * d0, d1
    return mutant


def _scaled_d1(build_d_fields):
    def mutant(*args):
        d0, d1 = build_d_fields(*args)
        return d0, 1.1 * d1
    return mutant


def _without_kappa_A2(build_d_fields):
    # d0 without its frame terms kappa (A^2 n - (1/2) (n . A^2 n) n)
    def mutant(record, q2, kappa):
        d0, d1 = build_d_fields(record, q2, kappa)
        n = record.frame.n
        A2n = fields.matvec(record.A, fields.matvec(record.A, n))
        nA2n = (n * A2n).sum(axis=-1)[..., None]
        return d0 - (kappa * A2n - 0.5 * kappa * nA2n * n), d1
    return mutant


def _without_AG(build_d_fields):
    # d0 without the paper's variable-thickness term (1/2) (A grad((g2 - g1) n))^T n
    def mutant(record, q2, kappa):
        d0, d1 = build_d_fields(record, q2, kappa)
        return d0 - 0.5 * fields.matvec(fields.transpose(record.AG), record.frame.n), d1
    return mutant


def _flipped_AG(stretching_tensor):
    return lambda frame, A, AG, b_tan, kappa: stretching_tensor(frame, A, -AG, b_tan, kappa)


def _swapped_tangents(reduce_q2):
    return lambda q3, n, T: reduce_q2(q3, n, T[..., ::-1])


# (mutant, the import site the studies call it through, its wrapper, the
# builtins it must fail).  The fitted R^2 of each, in the order named:
#   0.9 d0        0.852, 0.747, 0.822, 0.862
#   1.1 d1        0.949
#   kappa A^2     0.696, 0.696, 0.956, 0.695, 0.878
#   AG dropped    0.848
#   AG flipped    0.788, 0.857
#   (t2, t1)      0.654
# Two builtins fail a mutant too near the gate to assert the margin:
# cylinder-thick-gamma fails 0.9 d0 at 0.976 and plate-thick-gamma 1.1 d1
# at 0.978.
STUDY_KILLS = [
    ("0.9 d0", recovery3d, "build_d_fields", _scaled_d0,
     ["plate-gamma", "sphere-gamma", "sphere-anisotropic-gamma", "plate-thick-gamma"]),
    ("1.1 d1", recovery3d, "build_d_fields", _scaled_d1, ["plate-bending-gamma"]),
    ("kappa A^2 terms dropped from d0", recovery3d, "build_d_fields", _without_kappa_A2,
     ["plate-gamma", "sphere-gamma", "sphere-anisotropic-gamma", "plate-thick-gamma",
      "cylinder-thick-gamma"]),
    ("AG term dropped from d0", recovery3d, "build_d_fields", _without_AG,
     ["cylinder-thick-gamma"]),
    ("AG sign flipped in the stretching tensor", kinematics, "stretching_tensor", _flipped_AG,
     ["plate-thick-gamma", "cylinder-thick-gamma"]),
    ("T columns swapped in reduce_q2", recovery3d, "reduce_q2", _swapped_tangents,
     ["sphere-anisotropic-gamma"]),
]


@pytest.mark.parametrize("name", sorted(KILL_SCENES))
def test_kill_scenes_pass_unmutated(name):
    report = run_study(load_config(name))
    assert report.passed, report.summary
    assert report.summary["fitted_gap_r2"] >= 0.999
    assert report.summary["I_limit"] == pytest.approx(KILL_SCENES[name], rel=1e-9)


@pytest.mark.parametrize("mutant, module, attribute, wrap, scenes", STUDY_KILLS,
                         ids=[kill[0] for kill in STUDY_KILLS])
def test_named_scenes_fail_each_mutant(mutant, module, attribute, wrap, scenes, monkeypatch):
    monkeypatch.setattr(module, attribute, wrap(getattr(module, attribute)))
    for name in scenes:
        report = run_study(load_config(name))
        summary = report.summary
        assert not report.passed, (mutant, name)
        assert summary["fitted_gap_r2"] < summary["gap_r2_min"] - 0.02, (mutant, name)
