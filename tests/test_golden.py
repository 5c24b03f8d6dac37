"""Golden SHA-256 hashes of the CLI's CSV output at small fixed configurations.

Two runs of the same code agreeing (acceptance check 11) cannot show that a
refactor left behaviour unchanged; these pinned hashes can.  A deliberate
change of output must re-record them and say why.
"""

import hashlib

import pytest

from cpdtlab.cli import main

DOMAIN = "--domain=-2048:2047"
# Large-denominator step: forces the exact quantizer onto its object-dtype path.
OBJECT_STEP = "12.34567890123456789"

REQUANT_CASES = {
    "sweep-offset0-mean-abs": [
        "requant", "sweep", "--qstep-s", "12", "--qstep-t", "2:40:1", DOMAIN,
    ],
    "sweep-offset1_3-rms-away": [
        "requant", "sweep", "--qstep-s", "10", "--qstep-t", "4:30:2.5", DOMAIN,
        "--offset", "1/3", "--metric", "rms", "--tie-break", "away-from-zero",
    ],
    "sweep-object-step-mse": [
        "requant", "sweep", "--qstep-s", OBJECT_STEP, "--qstep-t", "10:30:5", DOMAIN,
        "--offset", "1/3", "--metric", "mse",
    ],
    "surface-offset0-mse": [
        "requant", "surface", "--qstep-s", "8:16:4", "--qstep-t", "6:24:6", DOMAIN,
        "--metric", "mse",
    ],
    "surface-offset1_3-mean-abs-away": [
        "requant", "surface", "--qstep-s", f"{OBJECT_STEP}:20:5", "--qstep-t", "1:25:8", DOMAIN,
        "--offset", "1/3", "--tie-break", "away-from-zero",
    ],
    "surface-offset1_3-rms": [
        "requant", "surface", "--qstep-s", "27.6", "--qstep-t", "138/5:40:4", DOMAIN,
        "--offset", "1/3", "--metric", "rms",
    ],
    "overlap-offset1_3": [
        "requant", "overlap", "--qstep-s", "10", "--qstep-t", "25", DOMAIN,
        "--offset", "1/3",
    ],
    "overlap-finer-target": [
        "requant", "overlap", "--qstep-s", "10", "--qstep-t", "4", DOMAIN,
    ],
    "overlap-offset1_2-integer-ratio": [
        "requant", "overlap", "--qstep-s", "10", "--qstep-t", "30", DOMAIN,
        "--offset", "1/2",
    ],
    "overlap-offset1_3-integer-ratio": [
        "requant", "overlap", "--qstep-s", "10", "--qstep-t", "20", DOMAIN,
        "--offset", "1/3",
    ],
    "overlap-decimal-ratio": [
        "requant", "overlap", "--qstep-s", "27.6", "--qstep-t", "41.4", DOMAIN,
    ],
    # Every target boundary in the domain is positive.
    "overlap-one-sided-domain": [
        "requant", "overlap", "--qstep-s", "10", "--qstep-t", "25", "--domain=5:2047",
        "--offset", "1/6",
    ],
}

EXPECTED = {
    "sweep-offset0-mean-abs":
        "8b149c614903c6f6464923b76de2aa8c53160443e65bc74f6654faab08ff7755",
    "sweep-offset1_3-rms-away":
        "b85575bffbc7b7b702b7522c46ab4295beb38585d7fabf1fc7be52d71e35acc1",
    "sweep-object-step-mse":
        "cbc157c13bd43589ab45a1b3364ba1340c9eadb13aecd254eaae7535cfc68610",
    "surface-offset0-mse":
        "b0781b571de517a2d497ff06cf2f45272e6e839bcbef953c17e2b98a6055df3f",
    "surface-offset1_3-mean-abs-away":
        "6d0f5e30c3bfcab48d60ec240267472ece5b010e16ac01a2a710735513eac8ca",
    "surface-offset1_3-rms":
        "441c09059fe05432d950e81da30dddd384a74000ce594b008085bbd59ca81371",
    "overlap-offset1_3":
        "47b292ee3eaef330f2007386e9a7e93856fc8118aee928dfd8647b87739a5330",
    "overlap-finer-target":
        "0bb9f74f35f5e77f11ae2019afe6363daff20ee60b4b4193ae559ba438f8a576",
    "overlap-offset1_2-integer-ratio":
        "b8041a571794cece8fcdb31cbe9ea90ce255e206f17b4d2f62a5f2635d958156",
    "overlap-offset1_3-integer-ratio":
        "87cec7293885dc8ffa874ac954987e4551d3d0d0f21e6a769c5a53ca004d56c0",
    "overlap-decimal-ratio":
        "9e3093efad3e9bd2c067131e448bdb9fd8fa06e97b8fb1d787c87495c547a95f",
    "overlap-one-sided-domain":
        "954aeb5db581f204d4859ceeed0f4720b84c698ee5daf6c16f51f79442a0010b",
    "plane.pgm":
        "d0fca468983354de97de8e26d6e01d5d4d4cb60ce01f176056f4b110fb29093e",
    "curve.csv":
        "155c8e17350cd1c887aabb7666ba2472e552c54bedb034183a77dfbb1e6241d5",
    "run_records.csv":
        "d0e5ceb9749c4c67ee2b92972d747dd4d062d84f6afa6e8fe5e6330370fe541c",
    "run_profile.csv":
        "1d454dca39fec3b06ecdc3d0992c9f4e7fdc0f06a1dd00c9149b91476c3d78fd",
    "run_local_min.csv":
        "53f32b0817d0c91f3806c9c0e3107d7d0f59304e9c74591b8c85bde96c0c8acd",
    "odd.pgm":
        "2ffb2c95e588a87d39c9371762bdc444aeb952af7d14afb1d009811a93b4a04a",
    "odd_curve.csv":
        "bfd110348f4eec6bfb17a84d0d48feac8294c2e203092bf1f73d933446d4e01b",
    "odd_records.csv":
        "b5781ecf58c714823081965c1ca6fc9de9714fb6bbf357fed4bf870335de9f57",
    "odd_profile.csv":
        "4c16b7e753ee16f00232ca3eda78e372f45423951da31fe540808ad1617d7667",
    "odd_local_min.csv":
        "73893028c159f899e69f5015dd5a0332ce872f54e406926a119fa6b3e774fa24",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REQUANT_CASES))
def test_requant_csv_hash(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(REQUANT_CASES[name] + ["--out", "out.csv"]) == 0
    assert _sha256(tmp_path / "out.csv") == EXPECTED[name]


@pytest.fixture(scope="module")
def cpdt_outputs(tmp_path_factory):
    """Planes, RD curves and small cpdt-sweeps, run with relative paths so the
    echoed configuration does not depend on the directory: a 64x64 plane with
    8x8 blocks, and a 45x29 plane (padded on both axes) with 4x4 blocks whose
    qp_s 22 and 38 have full local-minimum neighborhoods."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        commands = [
            ["gen-content", "--seed", "1", "--complexity", "0.6",
             "--width", "64", "--height", "64", "--out", "plane.pgm"],
            ["rd-curve", "--input", "plane.pgm", "--out", "curve.csv"],
            ["cpdt-sweep", "--input", "plane.pgm", "--qp-s", "26:30:2",
             "--qp-t", "26:30:1", "--out-prefix", "run"],
            ["gen-content", "--seed", "3", "--complexity", "0.4",
             "--width", "45", "--height", "29", "--out", "odd.pgm"],
            ["rd-curve", "--input", "odd.pgm", "--block-size", "4", "--out", "odd_curve.csv"],
            ["cpdt-sweep", "--input", "odd.pgm", "--qp-s", "22:38:8", "--qp-t", "20:40:1",
             "--block-size", "4", "--out-prefix", "odd"],
        ]
        for argv in commands:
            assert main(argv) == 0
    return root


@pytest.mark.parametrize(
    "name",
    ["plane.pgm", "curve.csv", "run_records.csv", "run_profile.csv", "run_local_min.csv",
     "odd.pgm", "odd_curve.csv", "odd_records.csv", "odd_profile.csv", "odd_local_min.csv"],
)
def test_cpdt_output_hash(name, cpdt_outputs):
    assert _sha256(cpdt_outputs / name) == EXPECTED[name]
