"""The README command set writes byte-identical files and stdout.

Determinism is a documented contract of the CLI: the same configuration
gives the same bytes for one numpy build at one CPU dispatch level.  Each
command below runs in-process through ``cli.dispatch`` on fixed inputs;
each output file is formatted by its writer straight into the output
directory, and the SHA-256 of every file and of stdout is compared with a
recorded digest.  A change that moves any output by one bit (a different
summation order, a different float format) fails here and names the file.

The digests were recorded with numpy 2.4.6 on x86-64 Linux, on a CPU where
numpy dispatches up to AVX512_SPR (``np.show_runtime()`` prints the level).
numpy's float64 kernels round differently at other dispatch levels, so
``LEVEL_DIGESTS`` holds, for each lower level, the digests that differ
there, and the test checks the table of the level it runs at
(:func:`dispatch_level`).  ``tests/test_dispatch_levels.py`` reruns this
file at every lower level the CPU has.  On other platforms and in other
builds the digests must be re-recorded from a known-good commit.

Run as a script, this file prints the digests that differ from
``DIGESTS`` at the level it runs at, which is how ``LEVEL_DIGESTS`` was
recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from thermocontact.cli import dispatch

SYSTEM = {
    "labels": ["s0", "s1", "s2", "s3"],
    "weights": [1.0, 2.0, 1.5, 1.0],
    "v_int": [0.0, 0.25, -0.5, 0.75],
    "v_bar": [[1.0, -0.5, 0.25, 0.0]],
}


def _extended_path_text() -> str:
    """An admissible extended path with n = 2, written with exact decimals.

    z grows faster than S T' + p_1 q_1', the second extensive variable is
    zero, so ``reduce --k 1 --zeroed 2`` gives a non-negative reduced path.
    """
    rows = ["t,z,S,T,p_1,p_2,q_1,q_2"]
    for i in range(41):
        t = i / 40
        rows.append(
            "%r,%r,%r,%r,%r,%r,%r,%r"
            % (t, 3.0 * t + t * t, 0.5 + 0.25 * t, 1.0 + 0.5 * t, 0.5 - 0.25 * t, 0.0,
               0.1 * t, 1.0 - t)
        )
    return "\n".join(rows) + "\n"


COMMANDS = {
    "chord_gas": ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2"],
    "chord_gas_json": ["chord", "gas", "--t0", "1", "--t1", "5", "--c", "2", "--format", "json"],
    "chord_cw": ["chord", "cw", "--t0", "2", "--t1", "3.3333333", "--c", "1", "--b", "1",
                 "--grid", "16"],
    "gibbs": ["gibbs", "--system", "{in}/system.json", "--T", "1.5", "--q", "0.3"],
    "relax": ["relax", "--system", "{in}/system.json", "--config", "{in}/relax.json"],
    "isotopy_gas": ["isotopy", "gas", "--T0", "1", "--T1", "5", "--bg0", "0", "--bg1", "2",
                    "--x-lo", "-2.5", "--x-hi", "-0.5", "--n-x", "9"],
    "isotopy_cw": ["isotopy", "cw", "--T0", "2", "--T1", "2.5", "--b", "1", "--x-lo", "-0.6",
                   "--x-hi", "0.6", "--n-times", "6", "--n-x", "3"],
    "stirling": ["stirling", "--t-cold", "1", "--t-hot", "5", "--v-min", "1.5", "--v-max", "2"],
    "reduce": ["reduce", "--input", "{in}/path.csv", "--k", "1", "--zeroed", "2"],
}

# SHA-256 of every output file (by name) and of stdout, recorded before the
# path, relaxation and writer code moved to whole-column operations.
DIGESTS: dict[str, dict[str, str]] = {
    "chord_cw": {
        "<stdout>": "98d36dfcc8a5242477fba8afc48a34325cb7dd5aaf4c6dcd621ee92c830d5f18",
        "chords_cw.csv": "072bfa211afbaabe6baa67268c242cda485a38f1fa27c73c3ad027a99e2e67bc",
        "cw_legendrian.csv": "9e9154cd2264475bd2f0baca615371e6a23134d4b5bcb16d2a911aee5aae3805",
        "fig4_chord.csv": "3716ae2c788e0998a140f7ce07b902f45ab742448ae58e8a9e320fc2762d16fd",
        "fig4_difference_front.csv": "b212c95fd62f84f2e2221c7a889697e7f48492355befa30538f7144421d75e5f",
        "fig4_zero_section.csv": "1469c079dbb2369cf6516c801472be7eb35c75c71b8435a647070747d155a555",
    },
    "chord_gas": {
        "<stdout>": "ca02fa421514555bbd8b04bbb33ea635cb5f03fc3fbd94ee172124255a93e1a6",
        "chords_gas.csv": "7b0191b895c0e994f405a0991902079302436aa3c0d75cbc589855539c07821b",
        "fig1_chord.csv": "c8547868f83316b0e1ffafa74526ce52048fcda075ad7dc4d5e23d85bdf8ac30",
        "fig1_family_cold.csv": "375969d9bcd897d5f52c9aa6badbb2ab24324d7924c7881cf89ea28eb2fc6537",
        "fig1_family_hot.csv": "bed4f939f830f5296d50b7d2bd5804c8315930b6a62ff7cd4d3f10f891954b0b",
        "fig3_chord.csv": "cf12478f9636bd7145ce413dcf4dbe24530b90c0cb93fb7841a38e6fec168f9e",
        "fig3_difference_front.csv": "e25909a4d5e41304641ccf7b4d4874c523cf6820ada84267dca85a1d2c1ddeeb",
        "fig3_zero_section.csv": "6a22a90f3ccd95bf9666223e39563d88e20a63373bac5df29273adddd1968004",
    },
    "chord_gas_json": {
        "<stdout>": "ca02fa421514555bbd8b04bbb33ea635cb5f03fc3fbd94ee172124255a93e1a6",
        "chords_gas.json": "a618d27ad34f3266989d76f7cdc2df49fa7c99f6ac95909a470ec7d70180aa33",
        "fig1_chord.csv": "c8547868f83316b0e1ffafa74526ce52048fcda075ad7dc4d5e23d85bdf8ac30",
        "fig1_family_cold.csv": "375969d9bcd897d5f52c9aa6badbb2ab24324d7924c7881cf89ea28eb2fc6537",
        "fig1_family_hot.csv": "bed4f939f830f5296d50b7d2bd5804c8315930b6a62ff7cd4d3f10f891954b0b",
        "fig3_chord.csv": "cf12478f9636bd7145ce413dcf4dbe24530b90c0cb93fb7841a38e6fec168f9e",
        "fig3_difference_front.csv": "e25909a4d5e41304641ccf7b4d4874c523cf6820ada84267dca85a1d2c1ddeeb",
        "fig3_zero_section.csv": "6a22a90f3ccd95bf9666223e39563d88e20a63373bac5df29273adddd1968004",
    },
    "gibbs": {
        "<stdout>": "06661cc2adf6e03254236b1d443a4351a49a0cfbc435626ea411398e14b9ffd8",
        "gibbs_density.csv": "4723a7d455f39d35bf67f9654a7b26e400b70a489a5f968052d7ed370a07149e",
        "gibbs_point.json": "d64e13fdfd4fbe926b16d4b03f7edee707d7012fef674ed063287ce78cebaf02",
    },
    "isotopy_cw": {
        "<stdout>": "3bc23aacc22a390c8b24210daece1a912a0251509aad4123eb7a354b6b56d4e0",
        "isotopy_manifest.json": "c52e23b22811c1c527af69cb6e4d44222d3342ce411072bab7d4a9648d4cb447",
        "isotopy_path_000.csv": "00f815fc0791d61793f87de72aed8039e749744b338aa4cd1d9412536daa515a",
        # its x = 0 path sits at zero field, where p is exactly 0
        "isotopy_path_001.csv": "381f2a9980a40f675bba7c13c354c620f4a03ea82ab767e51c19af34999b2052",
        "isotopy_path_002.csv": "0e05d8d7bc184c5f05c585b89e7adb651e9eaa379984bce8a6ae36a3cbd2f6e2",
    },
    "isotopy_gas": {
        "<stdout>": "e20075f5e998d75b1608caf90f38b4a1958adc80d4fe5dc755226f8720f2a0ac",
        "isotopy_manifest.json": "1d0458d001a28213bbe9bc963161878cfb5d46cdc64b17ae088e0e31306ef9ff",
        "isotopy_path_000.csv": "300c1a34ec420f1278ef4ac8845f0ad1dc5dac448fc5fea3121810a58d322763",
        "isotopy_path_001.csv": "0fe55a2c10a35ed4f94e1194d5ee14f18595471ef910ab396a370a447af05005",
        "isotopy_path_002.csv": "240607d2b823755210503017c3ad345f85b1d19f08e645cfa541f045c8fa9ef9",
        "isotopy_path_003.csv": "348312b5312bf6526fb88d053c3b2323e0757ae6b025d9225bf8ff93117c174f",
        "isotopy_path_004.csv": "480252335b640e1e8ec8d9a9dc49b135541562c804114cdf3587e42f1fbc4d6c",
        "isotopy_path_005.csv": "512852c5bfab2a7703f8ec159b5f4ac7713c09684d1f4073e18da0f7c31dcfa0",
        "isotopy_path_006.csv": "8d84eb678e744357959ee901a005cb6bd22d85ac388db30f627ee410736602ad",
        "isotopy_path_007.csv": "4c23abf3869af99550ec71c1978361f746f692a5cbd9f8eadaf60cd7f82e29df",
        "isotopy_path_008.csv": "b81602dd5cc4ad12a438f0ef2e85a2dfa972698c7733c8c1c7409a855574eb3f",
    },
    "reduce": {
        "<stdout>": "a098434a23ef13eea28b472ab785fa890d83574f3e510ec0488ebc6a83de6d54",
        "reduced_path.csv": "aeac0aa293e4a5560bff6e5a89afd8628c34f323627847decf005ac5a9e7ce72",
        "reduced_report.json": "a7260e1c88c8fe58955b30beff45ac9565bbeee83a98dc6a47a3e87cdfc93c49",
    },
    "relax": {
        "<stdout>": "420797fb88df9e68fa81a34a5c47a10798835d63e0321937f768619dbcfa728d",
        "relax_densities.csv": "ab9678beca2b7dc92578154486e45656c0ff1590214f0f44f265a2b2fdda649e",
        "relax_manifest.json": "a38e192547aeceb0f2a308913e12fd154b777ae8d420d44aeb554d0ead6ceb01",
        "relax_path.csv": "483af12223b70c3f2d90dfa0d09878158c193478de37e1ae76281257cbdf8bb1",
    },
    "stirling": {
        "<stdout>": "5c76f3b11b360d410c214f2e5e2eb16fab9aa802b8e4c4c1ea8dc880c9e11c13",
        "stirling_cooling_corner.csv": "7ca71f79e9f85e28d198c25b682a2763535d758077061904f665796aa334c1d2",
        "stirling_heating_corner.csv": "269f057424dfef4614a671cc46e262040dc1b3388c43eced8ddb1ef5c7fa2899",
        "stirling_isotherm_cold.csv": "cd50be4904591454f6de667e75b9733dc451402bb850efa2e18c55661fe543d0",
        "stirling_isotherm_hot.csv": "664be03140370ed5622addb594f10f914cefb5ea3d9da1b29d04343abe728b5a",
        "stirling_manifest.json": "d5c7f05400309aa5e56421fc41670337012868bd45900b0988218d12019822bf",
    },
}

# The digests that differ from DIGESTS at each lower dispatch level, each
# recorded on the CPU above by running this file as a script with numpy's
# targets above the level switched off (PYTHONPATH=src):
#   AVX512_ICL  NPY_DISABLE_CPU_FEATURES="AVX512_SPR"
#   X86_V4      NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR"
#   X86_V3      NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
#   X86_V2      NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# Below X86_V4 the gas family's np.log gives other bits.
_BELOW_X86_V4 = {
    "chord_gas": {
        "fig1_family_hot.csv": "7eb7a26e0f01c6e06e349d087d02f13c6e11f6f895997b120af64c4a49bb781f",
    },
    "chord_gas_json": {
        "fig1_family_hot.csv": "7eb7a26e0f01c6e06e349d087d02f13c6e11f6f895997b120af64c4a49bb781f",
    },
    "isotopy_gas": {
        "isotopy_path_001.csv": "9f86fa5518283d00216637767f69bac004721512ba40f00846d0455fe6cee621",
    },
}
LEVEL_DIGESTS: dict[str, dict[str, dict[str, str]]] = {
    "AVX512_SPR": {},
    "AVX512_ICL": {},
    "X86_V4": {},
    "X86_V3": _BELOW_X86_V4,
    "X86_V2": _BELOW_X86_V4,
}


# numpy's CPU dispatch levels, lowest first: the baseline, then each target
LEVELS = [__cpu_baseline__[-1] if __cpu_baseline__ else "baseline", *__cpu_dispatch__]


def dispatch_level() -> str:
    """The level this process runs at: the last target before the first one
    that is off, or the baseline where none is on.

    A target that is on above one that is off does not count: with only
    X86_V4 disabled, the digests are those of X86_V3 although AVX512_SPR is
    still on, since a kernel runs its highest target whose features are all on.
    """
    level = LEVELS[0]
    for target in LEVELS[1:]:
        if not __cpu_features__.get(target):
            break
        level = target
    return level


def expected_digests(name: str) -> dict[str, str]:
    """DIGESTS[name], with the digests recorded for this level put over it."""
    return {**DIGESTS[name], **LEVEL_DIGESTS.get(dispatch_level(), {}).get(name, {})}


def _run(name: str, tmp_path) -> dict[str, str]:
    in_dir = tmp_path / "in"
    in_dir.mkdir(exist_ok=True)
    (in_dir / "system.json").write_text(json.dumps(SYSTEM))
    (in_dir / "relax.json").write_text(
        json.dumps({"q": "0.2", "T0": 1, "T1": 1.5, "ramp": 2, "t_end": 10})
    )
    (in_dir / "path.csv").write_text(_extended_path_text())
    out_dir = tmp_path / name
    argv = [a.replace("{in}", str(in_dir)) for a in COMMANDS[name]]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = dispatch(argv + ["--out-dir", str(out_dir)])
    assert code == 0
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())
    }
    digests["<stdout>"] = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert _run(name, tmp_path) == expected_digests(name)


if __name__ == "__main__":
    import pathlib
    import tempfile

    moved = {}
    for name in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            got = _run(name, pathlib.Path(tmp))
        moved[name] = {f: d for f, d in got.items() if DIGESTS[name].get(f) != d}
    print(dispatch_level(), json.dumps({n: m for n, m in moved.items() if m}, indent=4))
