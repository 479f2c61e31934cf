"""Report bytes of the certificate-bearing verbs, pinned by digest.

Each case runs one command line on a fixed rational instance and hashes
its exit code together with its stdout.  The digests were recorded with
the two-column-per-variable simplex tableau, so any drift in pivot order,
tie-breaking, or the points, maps and witnesses read out of the final
basis shows up here, even where the new certificate would still verify.
The hash-search and hash-greedy cases pin the words, node counts and
optimal flags of the code searches in the same way, and the gap, bounds
and --decimal cases the growth rates, verdicts and approximations that
the reports render.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from antipodes.cli import main
from antipodes.geometry import PointSet, dump_point_set
from antipodes.rationals import ratio

SETS = {
    # Six hull vertices and one interior point.
    "hepta": [
        (0, 0), (3, "1/2"), ("7/2", 2), (2, "7/2"), ("-1/3", 3), (-1, "3/2"),
        (1, 1),
    ],
    "space": [
        (0, 0, 0), (2, "1/3", 0), ("1/2", 3, "1/5"), (0, "1/2", 2),
        ("5/3", "5/3", "5/3"), ("1/2", "1/2", "1/2"),
    ],
    "triangle": [("1/3", 0), (2, "1/5"), ("1/2", "7/3")],
    "tetra": [(0, 0, 0), ("3/2", "1/7", 0), ("1/3", 2, "1/2"), ("-1/2", "1/4", "5/3")],
    "rhombus": [(0, 0), (2, "1/3"), ("5/2", "7/3"), ("1/2", 2)],
    "states": [("1/2", "1/3"), ("11/4", "7/5"), ("1/3", "5/2")],
    "cube": [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
    # Its first three points are collinear.
    "corner": [(0, 0), (1, 0), (2, 0), (0, 1)],
    # x -> (x + y/2 + 1/3, 2y - z/3, 3z/5 - x/7) on the cube's vertices.
    "cube~affine": [
        (
            ratio(a) + ratio(b, 2) + ratio(1, 3),
            2 * ratio(b) - ratio(c, 3),
            ratio(3 * c, 5) - ratio(a, 7),
        )
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ],
}

# (argv with set names for files, sha256 of "<exit code>\n<stdout>").
CASES = {
    "joint-direct-holds": (
        ("check-joint", "hepta", "0", "2"),
        "7e51316d69facf02def06033f917bc080cc4b6598ee94d337dbde0e6a070530c",
    ),
    "joint-direct-witness": (
        ("check-joint", "hepta", "0", "6"),
        "f34eceee1db1fb9b2d823f5987a3b76de2605db6400103a47bfee7fc24c27a3a",
    ),
    "joint-direct-witness-verify": (
        ("--verify", "check-joint", "hepta", "0", "6"),
        "86d7061bc1127d5ae392c3639360cb2e963b21bfa07401a7a84db2e62054a94a",
    ),
    "joint-lambda-witness": (
        ("check-joint", "space", "0", "1", "2", "--lambda", "1/2,3/4,3/4"),
        "3b7bdf07aa8ff5f6f40003cd026d8cd4801baa795928a02548a16f7fc4c6027a",
    ),
    "joint-lambda-holds": (
        ("check-joint", "space", "1", "2", "3", "--lambda", "1/2,3/4,3/4"),
        "c091f337b9f91e137bf18960ce9086e29e5803b5bf4b4782f92a189d788ba059",
    ),
    "joint-lambda-holds-verify": (
        ("--verify", "check-joint", "hepta", "1", "4", "--lambda", "1/3,2/3"),
        "e8291c30a0847fce02eefc3a5904f81e262bba0678efd8d09fcd157fd2afcafa",
    ),
    "strict-evidence-triangle": (
        ("check-strict", "triangle", "--k", "1"),
        "e607a49e9b8c7befb611bf4a0006642b60da89b6b86abda7b9294a99b7af9f49",
    ),
    "strict-evidence-tetra-verify": (
        ("--verify", "check-strict", "tetra", "--k", "2"),
        "55f47ad5bb68b66b2c060a3503576b864bfc965b355a277be927e6cf7ba66745",
    ),
    "strict-forced": (
        ("check-strict", "rhombus", "--k", "1"),
        "917526a08dc59646b938a17e1a0be46d9d3ab3913555f312b1c124ee518d314e",
    ),
    "strict-forced-verify": (
        ("--verify", "check-strict", "rhombus", "--k", "1"),
        "3e8274ec601082248a9cf0aeb212e3a8165fcb29d36d67a898b3b4c367342d51",
    ),
    "strict-not-antipodal": (
        ("check-strict", "space", "--k", "1"),
        "0737468b3a8cfcbbc013a8b28c6357eb906b9183a9e45c0240e7c780107f92b8",
    ),
    "strict-not-antipodal-verify": (
        ("--verify", "check-strict", "space", "--k", "1"),
        "d5127819939acfc98fa4bf2148b37cda8826158a4cf553d88ba155b71e18136c",
    ),
    "discriminate-error": (
        ("discriminate", "hepta", "states"),
        "67407d24b9401fc3243d8c8e2b5d2eae5376f30b99fda6039a0d4370cb4ceb69",
    ),
    "discriminate-error-verify": (
        ("--verify", "discriminate", "hepta", "states"),
        "59c014d523dea874e33e779cec45770e24c8c2ce0f47219b54eca5001f5490ad",
    ),
    "discriminate-zero": (
        ("--verify", "discriminate", "triangle", "triangle"),
        "c084fa8518d008e23796772bf6f0e9bd33361ea561de0c7e8ebebba5d0a96f4e",
    ),
    "rank-fails-witness": (
        ("check-rank", "hepta", "--k", "1"),
        "0bff8130730f058720cf2c2afb9aa7adcee54b90033e06fe9323d3b053aeedb5",
    ),
    "rank-fails-witness-verify": (
        ("--verify", "check-rank", "space", "--k", "2"),
        "063a85384148d38cd13456fddfa9be4757a67fffda4c26a029e7376ab10d1a7f",
    ),
    "rank-cube-fails": (
        ("check-rank", "cube", "--k", "2"),
        "d705094613f6450510487d4b2abb684b2876cbe3cefff4462f864a32b85d7b5d",
    ),
    "rank-cube-affine-fails-verify": (
        ("--verify", "check-rank", "cube~affine", "--k", "2"),
        "b07a36b6d094d64ddc8c94041a9bec8f2d98426888d54227ad7aef1d6b4d1ffc",
    ),
    "rank-cube-holds": (
        ("check-rank", "cube", "--k", "1"),
        "09798c04050c833233fb5bf71091e47ba70c6df83b65ff8229ab3b8cd56527ff",
    ),
    "rank-cube-affine-holds-verify": (
        ("--verify", "check-rank", "cube~affine", "--k", "1"),
        "efd6eabfb5b441ccace3f81772100b84d6a5d8200db6c3429fa983d6a9b02275",
    ),
    "rank-cube-sampled-holds": (
        ("check-rank", "cube", "--k", "1", "--sample", "3", "--seed", "1"),
        "f61c356a48f0af2f26a8c9ccde4f2a8016a95081685656295d9a508c309d3756",
    ),
    "erdos-cube-holds": (
        ("check-erdos", "cube", "--k", "1"),
        "2ed91fe267e8b48cb2f0c928e09bee05b7b5c01dc67ae278fc1184b73c044349",
    ),
    "erdos-cube-holds-verify": (
        ("--verify", "check-erdos", "cube", "--k", "1"),
        "d1fcaef651a33f9d3b17dbae5e076f94d758ada9055fc3b23360c4b31614238d",
    ),
    "erdos-tetra-outside": (
        ("check-erdos", "tetra", "--k", "2"),
        "87fbba7fc78a334f8b9ddf7b67fd5807955bdc27efc98cf8da1188f51bd13d2a",
    ),
    "erdos-corner-dependent": (
        ("check-erdos", "corner", "--k", "2"),
        "807368d97f87bd3ec2755ab109ce050ecc5fb16a82ed44bd74f1f1b04c1c1625",
    ),
    "volume-cube-holds-verify": (
        ("--verify", "volume-check", "cube~affine", "--k", "1"),
        "4db2215f63ba5cdeafd2afd46a314ff53a21c61f52b77cf59d72e006d9ad0027",
    ),
    "hash-search-433-verify": (
        ("--verify", "hash-search", "--b", "4", "--k", "3", "--m", "3"),
        "726fb02c89f7c82c19d2806789de754a58dec14f27291ccdb58be5befdb8ea09",
    ),
    "hash-search-443-verify": (
        ("--verify", "hash-search", "--b", "4", "--k", "4", "--m", "3"),
        "f6ca6d01a6da72a691ca9e6d34eca94470597f3b058af7c53a56d4dddd52ae80",
    ),
    # The budget runs out first: exit 3 with the incumbent.
    "hash-search-633-capped": (
        ("hash-search", "--b", "6", "--k", "3", "--m", "3", "--budget", "20000"),
        "1680f21e051b4ea8c7c0ea0268ec3909b932218f1be5065854dbd9e18b32f505",
    ),
    "hash-greedy-635-verify": (
        ("--verify", "hash-greedy", "--b", "6", "--k", "3", "--m", "5"),
        "a5e5c90e6e7a6bef7ba201689ce070705ff30d94a5770f7dd168cefd75dc8637",
    ),
    "hash-greedy-844-verify": (
        ("--verify", "hash-greedy", "--b", "8", "--k", "4", "--m", "4"),
        "a8abb06973108c2b404a3360f485c99b0a9a87704c599ac1670decaed495e5f3",
    ),
    # b equals the equalizing size 2^2.
    "gap-zero": (
        ("gap", "--k", "1", "--d", "2", "--b", "4"),
        "3397d84754019abed16c61f73b5aba426caf991b92398322ad7e4b370211946b",
    ),
    # b above the equalizing size 27/4, which is not an integer.
    "gap-above-fractional-size": (
        ("gap", "--k", "2", "--d", "3", "--b", "9"),
        "1ea7090dac09f4b6cb5f2956279772676ca21d55ad27b45dc9ccdc8207f50150",
    ),
    "gap-positive-verify": (
        ("--verify", "gap", "--k", "2", "--d", "2", "--b", "3"),
        "c54af543ba23b062858679a47ffd34aaef1e8c498b81ba65759cc4f08333f739",
    ),
    "gap-zero-decimal": (
        ("--decimal", "gap", "--k", "1", "--d", "3", "--b", "8"),
        "313878bdbb4161f88137602d6c1cd0ce96a5f45e257cbc5de8c8a857cbfb0f59",
    ),
    "bounds-decimal": (
        ("--decimal", "bounds", "--d", "5", "--k", "2"),
        "25978154c1e7fcbf8adb2f87b4b9e26303049e49a52c9291a6ae7e66cace8549",
    ),
    "joint-direct-witness-decimal-verify": (
        ("--decimal", "--verify", "check-joint", "hepta", "0", "6"),
        "312feed59978b18ba4c3c5955aad1096976245f550caf3443818aee7952895c5",
    ),
    "discriminate-error-decimal-verify": (
        ("--decimal", "--verify", "discriminate", "hepta", "states"),
        "0b873df570fa2397e79998c51dc4ff3af4f3ee0a4db5a078d7bc106f0022c097",
    ),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("digest")
    out = {}
    for name, rows in SETS.items():
        path = root / f"{name}.json"
        dump_point_set(
            PointSet(tuple(tuple(ratio(c) for c in row) for row in rows)), path
        )
        out[name] = str(path)
    return out


def _digest(argv, paths):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([paths.get(arg, arg) for arg in argv])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, paths):
    argv, expected = CASES[name]
    assert _digest(argv, paths) == expected
