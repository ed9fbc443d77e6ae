"""Round trip: every witness validates against its own label."""
import hashlib
import json

import pytest

from octica.strata import build_catalogue
from octica.witnesses import WITNESS_BUILDERS, WITNESS_SEED, build_witness

CATALOGUE_KEYS = sorted({r.witness_key for r in build_catalogue() if not r.empty})


@pytest.mark.parametrize("key", sorted(WITNESS_BUILDERS))
def test_witness_round_trip(key):
    witness = build_witness(key)
    label = WITNESS_BUILDERS[key][0]
    assert witness.profile.label_tuple == label.match_tuple()
    assert witness.profile.half_log_canonical
    assert witness.curve.degree == 8


def test_catalogue_keys_are_buildable():
    # every recipe serves a catalogue record, and every record's key has one
    assert set(CATALOGUE_KEYS) == set(WITNESS_BUILDERS)


def test_component_specific_configurations():
    # the two components of the one-[3;3]-one-quadruple stratum differ by the
    # quadruple point lying off or on the distinguished tangent line
    off = build_witness("N_12_p")
    on = build_witness("N_12_pp")
    rep_off = next(r for r in off.profile.reports if r.type_string() == "J10")
    rep_on = next(r for r in on.profile.reports if r.type_string() == "J10")
    quad_off = next(r for r in off.profile.reports if r.type_string() == "X9")
    quad_on = next(r for r in on.profile.reports if r.type_string() == "X9")

    def on_line(line, point):
        return line.evaluate({"x": point[0], "y": point[1], "z": point[2]}) == 0

    assert not on_line(rep_off.distinguished_tangent, quad_off.point)
    assert on_line(rep_on.distinguished_tangent, quad_on.point)


# sha256 of str(poly), seed_used and sha256 of the key-sorted profile JSON for
# the quick catalogue keys at WITNESS_SEED, recorded before Milnor numbers were
# computed once per point and forms' gcds one variable down (the profile
# hashes of N_12_pp, N_112_ppp, N_1b1b, M_1_11 and M_1_2b re-recorded when
# reports took the point search's order); a change meant to be faster only
# must leave them byte-identical
QUICK_WITNESS_GOLDEN = {
    "N_empty": ("9b055da6f8d1cd73c2915aedfa882803ae312fbe95725ee3abe9bec4cdcb0947", 90101,
                "41d6f4ce8ac8192538dd85350267192f8aa2e5ebec920e88db45f442e8c875f2"),
    "N_12_pp": ("c4cb43174bfc9624520952d5d592b39a749630da47bcb71dbe8988ea6ac11a36", 90101,
                "a83053b5fa9fff25a974c4428111099a794911f79de50ba83ad653834e9b9c99"),
    "N_112_ppp": ("ec0c757d6c58b652cf1e67777617e1d3419fb1eff461f921de73b95537a2349e", 90101,
                  "02943c6d2031bdc81e63973e97fee4823e8104bc8f17175409d5ed95f31249e8"),
    "N_1b1b": ("1525aca3795fc1d2dca4f4001208180ba50714bfd91e4858a9ad3091e12a6eac", 90101,
               "0ee9c3b4de98365e144b203682a535dd74ddc81de07669ab8ca8a02dffe55684"),
    "M_4_empty": ("f223be587376f4f96d651ccb5f0adb390771c6360420cfc4ec74c37ead5858f6", 90101,
                  "d2eede91436d0911b835d94d5552d6173d92d38cee1642b43cb6bf092ecc50b9"),
    "M_3_empty": ("1c307ee45ecaab767e78241005b6d5a6e1c98332599d3bb1095ea59e0e792c5d", 90101,
                  "1facef07497ced63f478a1c41f44a002a75b5bdee2831cc8cac4975f3d67c7e0"),
    "M_2_empty": ("b7c5d826f59112c2226cabc133b4963e7109d2ecb5b97dea41967555e76f351b", 90101,
                  "ff65ac0969af39ca0eea99d9c9cc1899074e800a1ee117e4b0ee2e3fb3613d94"),
    "M_2_2": ("4ef7d10d17f6f887ae03eabd28dd144336e42fef86b98e1b2c926d22eefdab50", 90101,
              "1e66bda5602a4d526fc97e371dddfffbfbdcf05156ef4e65121f35a43433cd49"),
    "M_1_empty": ("096f5c914f2407252a3b8de66451d4cb7bbbd057508853d8c484f79ec32f7c50", 90101,
                  "032ae6d55b9957c358888107a7ec8d8155e49df0750c4adc6840aa8f07519f65"),
    "M_1_11": ("37ac2a8f2f577d89088195d54cea718b0136b680714092759cc629f0bf7a4683", 90101,
               "504f25a4a64f1261470ef625a5ba7ffc8af9a1ed43c2a04447b0e7f44e63c77e"),
    "M_1_2": ("525938a2494f12800b0af114f3ed9717bcb93438f48f23e66f77a2fd64231cd6", 90101,
              "adb0e28bb8d87546579c75ca1c7d1fbf6d1badcbf76fd1bd11ed4eaf2d4da2df"),
    "M_1_2b": ("4aa79af263a2b36a064c507d941fee3ebc4e1180e5bfc402e225de04bf36bf57", 90101,
               "633f71549f29019debd9eba5ce45a37e62a1919e3cebfd897af1609ef800cc4c"),
}


def test_quick_witness_outputs_golden():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    for key, want in QUICK_WITNESS_GOLDEN.items():
        w = build_witness(key, seed=WITNESS_SEED)
        got = (sha(str(w.curve.poly)), w.seed_used, sha(json.dumps(w.profile.to_json(), sort_keys=True)))
        assert got == want, key
