"""Byte-level guard on record and table output.

The digests below were recorded before the exact-elimination code behind
field inverses, valuation caps and step matrices was rewritten; they pin
the format-1 ``ExpansionRecord`` JSON of a fixed corpus and the CSV of a
small ``emit_table`` run, so any change to those bytes fails here.
``phi1_cubic_recurring`` runs ``phi1_cubic_periodic``'s period-3 orbit to
40 steps with cycle detection off, so its digest pins the steps a
recurrence replays, on the write path and through ``from_json``.
``phi3_cubic_identity_step`` and ``phi0_cubic_identity_steps`` pin records
holding identity steps (a zero pivot component): one phi3 step, whose A is
built from the remainder's own rows, and ten phi0 steps beside the cyclic
shift.  ``phi0_rational_periodic`` and ``phi0_rational_finite`` run over
the degree-1 sentinel K = Q (coefficients [0], built by
``MinPoly.rationals``), whose polynomial is written with a null
certificate prime and read back through ``MinPoly.from_json``'s sentinel
branch.  The
z-set digests pin every generator and certificate prime of the full z-sets
at degrees 2-6, one digest for p in {2, 3} and one for p in {5, 7}; between
them they cover every z-set that reaches factor recombination.

To see the current digests: ``PYTHONPATH=src python tests/test_golden_digest.py``.
"""

import hashlib
import json

import pytest

from padiccf import lab
from padiccf.cfrac import ExpansionRecord, expand
from padiccf.field import MinPoly, validate_minpoly
from padiccf.rationals import Q

# name -> (p, minpoly a1..an, elements as ascending coefficient lists,
#          algorithm, expand keywords)
CORPUS = {
    "phi0_quadratic": (2, [1, 2], [[Q(1, 3), Q(2, 5)]], "phi0", {"max_steps": 40}),
    "phi0_cubic_eps_minus": (3, [0, 1, 3], [[1, 2], [Q(-1, 2), 0, 1]], "phi0", {"eps": -1, "max_steps": 25}),
    "phi0_cubic_identity_steps": (2, [0, 1, 4], [[0], [0, 1]], "phi0", {"max_steps": 20}),
    "phi1_cubic_periodic": (2, [0, 1, 4], [[0, 1], [0, 0, 1]], "phi1", {}),
    "phi1_cubic_recurring": (2, [0, 1, 4], [[0, 1], [0, 0, 1]], "phi1", {"max_steps": 40, "detect_cycles": False}),
    "phi1_quadratic_finite": (2, [1, 2], [[Q(2, 3)]], "phi1", {}),
    "phi1_quartic": (3, [0, 0, 1, 3], [[Q(1, 2), 1], [0, Q(-2, 5), 1], [1, 0, 0, Q(1, 7)]], "phi1",
                     {"max_steps": 30}),
    "phi2_cubic_lookahead2": (3, [0, 1, 3], [[Q(1, 4), 1], [2, Q(-1, 3), 1]], "phi2",
                              {"lookahead": 2, "max_steps": 30}),
    "phi3_cubic": (2, [0, 1, 4], [[Q(1, 3), 1], [1, Q(1, 5), Q(-1, 2)]], "phi3", {"max_steps": 30}),
    "phi3_cubic_identity_step": (3, [0, 1, 3], [[0], [1, 1]], "phi3", {"max_steps": 30}),
    "phi3_quartic_fixed_point": (2, [0, 0, 1, 2], [[0, 0, 0, 1], [0, 0, 1], [0, 1]], "phi3", {}),
    "phi3_g_variant": (3, [0, 1, 3], [[Q(2, 7), 1], [Q(1, 2), 0, 1]], "phi3", {"g_variant": True, "max_steps": 25}),
    "phi1_height_exceeded": (2, [0, 1, 4], [[Q(3, 7), Q(1, 5), 1], [Q(-2, 9), 1, Q(4, 11)]], "phi1",
                             {"height_exponent": 12}),
    "phi1_non_integral_minpoly": (2, [Q(1, 5), Q(1, 3), Q(2, 7)], [[Q(1, 2), 1], [1, 0, Q(1, 3)]], "phi1",
                                  {"max_steps": 30}),
    "phi0_rational_periodic": (3, [0], [[Q(-5, 7)]], "phi0", {"max_steps": 40}),
    "phi0_rational_finite": (2, [0], [[Q(13, 9)]], "phi0", {"eps": -1, "max_steps": 40}),
}

TABLE_CONFIG = {
    "primes": [2, 3],
    "degree": 3,
    "algorithms": [
        {"algo": "phi0", "eps": -1},
        {"algo": "phi1", "eps": 1},
        {"algo": "phi2", "eps": 1, "lookahead": 1},
        {"algo": "phi3"},
    ],
    "suite_size": 3,
    "max_steps": 60,
    "height_exponent": 45,
    "z_limit": 2,
}

# name -> (status kind, sha256 of the compact sorted-key record JSON)
GOLDEN = {
    "phi0_cubic_eps_minus": ("step_limit", "7b4526420411aa778904f7fa0d4e5dca8c653d3626799387deb0694cdcb58b24"),
    "phi0_cubic_identity_steps": ("step_limit", "41846c99b46d3533a0cce71030335f3140b6b85120b97cada4b3f195e851b606"),
    "phi0_quadratic": ("step_limit", "5fe35a69f3fa57d3b34cc5b80d6ea6208070714e6b3ecd6b1248cb3f5d30c27b"),
    "phi0_rational_finite": ("finite", "24d1b2fd9a83058d8120c8cf7768fbdd19247a5f4761fb2e52a480be7be75b05"),
    "phi0_rational_periodic": ("periodic", "4d12516003c0e74b896ea98663fb51a7c03252ce75b5692d0232aa18518dd55c"),
    "phi1_cubic_periodic": ("periodic", "fbb44c2d5d11f33c02df73028cb69e34f4d95046c08ea2552a6c41e9b488e1bb"),
    "phi1_cubic_recurring": ("step_limit", "e9a74d1984ca1060239ac3a2386ddc750406fa02ccddbdbaa195a9499d53c8fb"),
    "phi1_height_exceeded": ("height_exceeded", "47692efd78093634d686cb05d12e1fdf404eebd7b8a2f61030a1d1b73278cfc1"),
    "phi1_non_integral_minpoly": ("periodic", "a9c3620e1cd106f4e73b4f088c6e1cbacbf736d42efb3f367277690e8e22f2e0"),
    "phi1_quadratic_finite": ("finite", "81c20f4e9963acc0fab81fca1bd8dcaa098d475697fbd5861caa87812ea0ce80"),
    "phi1_quartic": ("height_exceeded", "f39cbcaf8bf362638bc598c45cb66df1c3162df80eb53a99fc86bf50b5c2ad1c"),
    "phi2_cubic_lookahead2": ("periodic", "ee9b5e5b2c1bbcc8d2305e8df267c12e690b067d1cc4092d9b283f6ec9787333"),
    "phi3_cubic": ("periodic", "36a24b57a6d5dd6e4a453726e1fe21c3b493885aa64997db6c9481e79fee8b1b"),
    "phi3_cubic_identity_step": ("periodic", "abdbf7e46aca44a8be6870fa94e0a50d4dff13e7138b714330a28c5f47f169af"),
    "phi3_g_variant": ("periodic", "fb8d40c1a105a05a9651de5f8fa4af9409ec04bedf028f3ebd9f5af92dc6fca6"),
    "phi3_quartic_fixed_point": ("periodic", "a91669c379b44a808d6c71d3c9f6e46826997afc04cf5758911868871a2b073b"),
}
EXPECTED_TABLE = "4661a314a2c3a0180055d08b9b8e65a7cfcdd7cf1c33416262c53535f1b835c1"
EXPECTED_Z_SETS = {
    (2, 3): "96c364d8aa2b90f51255fc41a229d7be88580d045af48403e75344d387ee28a5",
    (5, 7): "36330de35b1f6ebe25de7f93ccf05908f5779452089f22bdfe73c81a4eb78fba",
}


def record(name):
    p, coeffs, elems, algo, kwargs = CORPUS[name]
    mp = MinPoly.rationals(p) if coeffs == [0] else validate_minpoly(p, coeffs)
    return expand(mp.vector([mp.element(e) for e in elems]), algo, **kwargs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(rec) -> str:
    return digest(json.dumps(rec.to_json(), sort_keys=True, separators=(",", ":")))


def table_csv() -> str:
    rows, errors = lab.run_batch(lab.RunConfig.from_json(TABLE_CONFIG))
    assert not errors
    return lab.emit_table(rows)


def z_sets_json(primes) -> str:
    return json.dumps({f"{p}/{n}": [mp.to_json() for mp in lab.build_z_set(p, n)]
                       for p in primes for n in range(2, 7)}, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_record_bytes(name):
    rec = record(name)
    assert (rec.status.kind, record_digest(rec)) == GOLDEN[name]
    assert record_digest(ExpansionRecord.from_json(json.loads(json.dumps(rec.to_json())))) == GOLDEN[name][1]


def test_corpus_covers_outcomes_and_algorithms():
    assert {"finite", "periodic", "height_exceeded"} <= {kind for kind, _ in GOLDEN.values()}
    assert {spec[3] for spec in CORPUS.values()} == {"phi0", "phi1", "phi2", "phi3"}
    assert {len(spec[1]) for spec in CORPUS.values()} == {1, 2, 3, 4}
    assert any(Q(c).denominator != 1 for spec in CORPUS.values() for c in spec[1])
    assert record("phi3_cubic_identity_step").identity_steps == 1
    assert record("phi0_cubic_identity_steps").identity_steps == 10


def test_table_bytes():
    assert digest(table_csv()) == EXPECTED_TABLE


def test_z_set_bytes():
    assert {primes: digest(z_sets_json(primes)) for primes in EXPECTED_Z_SETS} == EXPECTED_Z_SETS


if __name__ == "__main__":
    for name in sorted(CORPUS):
        rec = record(name)
        print(f'    "{name}": ("{rec.status.kind}", "{record_digest(rec)}"),')
    print(f'table: "{digest(table_csv())}"')
    for primes in EXPECTED_Z_SETS:
        print(f'z-sets {primes}: "{digest(z_sets_json(primes))}"')
