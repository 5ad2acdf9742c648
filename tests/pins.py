"""Every pinned command-line run, in one table.

A record names one or more argvs of ``gksplit``, the input documents they
read, the exit code each run must give, the sha256 of their stdouts
concatenated (with the file that ``--out`` names appended after each run's
stdout), a rule for stderr and a time limit per run.  Two executors read it:

- Tier-1 (``test_cli.py``) runs every record in-process through ``cli.main``,
  except ``CI_ONLY``, whose runs take seconds each;
- ``run_pins.py`` runs every record that has a limit in a fresh
  ``python -m gksplit`` from a temporary directory, under that limit.

Both run from the directory that holds the inputs, so relative names in an
argv (and in the output that echoes them) read the same in either.
"""

from __future__ import annotations

import hashlib
import json
import shlex
from pathlib import Path
from typing import Callable, NamedTuple

import oracles
from gksplit import groups

#: stderr rules: starts with "error: ", or is exactly one line that does
ERROR = "starts with 'error: '"
ONE_ERROR_LINE = "one line, starting with 'error: '"


class Pin(NamedTuple):
    name: str
    runs: tuple[tuple[str, ...], ...]
    sha256: str | None = None
    code: int = 0
    stderr: str | None = None
    limit: float | None = None  # seconds per run, in a fresh interpreter
    inputs: tuple[tuple[str, str | Callable[[], str]], ...] = ()  # (file name, text or its builder)


def pin(*commands: str, sha256=None, code=0, stderr=None, limit=None, inputs=(), name=None) -> Pin:
    """A record from shell-quoted commands; a one-run record is named by its argv."""
    runs = tuple(tuple(shlex.split(c)) for c in commands)
    return Pin(name or " ".join(runs[0]), runs, sha256, code, stderr, limit, tuple(inputs))


def write_inputs(p: Pin, directory: Path) -> None:
    for file, text in p.inputs:
        (directory / file).write_text(text() if callable(text) else text)


def out_file(argv, directory: Path) -> bytes:
    """The bytes of the file that ``--out`` names in argv, or none."""
    return (directory / argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else b""


def faults(p: Pin, results) -> list[str]:
    """Why results, one (exit code, stdout bytes, stderr text) per run, break p."""
    reasons = []
    for argv, (code, _, err) in zip(p.runs, results):
        if code != p.code:
            reasons.append(f"{shlex.join(argv)}: exit {code}, expected {p.code}")
        if p.stderr and not (err.startswith("error: ") and (p.stderr == ERROR or err.count("\n") == 1)):
            reasons.append(f"{shlex.join(argv)}: stderr {err[:200]!r} is not {p.stderr}")
    digest = hashlib.sha256(b"".join(out for _, out, _ in results)).hexdigest()
    if p.sha256 and digest != p.sha256:
        reasons.append(f"stdout sha256 {digest}, expected {p.sha256}")
    return reasons


def _graph_doc(vertices, edges) -> str:
    return json.dumps({"schema": "gksplit/graph/1", "vertices": vertices, "edges": edges}) + "\n"


# the class labels of a 2K2 on R5 and R7
_R5_11, _R7_29, _R5_13, _R7_43 = (
    {"class": {"name": f"R{r}", "members": [m]}} for r, m in [(5, 11), (7, 29), (5, 13), (7, 43)]
)


def _e8_order_spectrum() -> str:
    return json.dumps({"group": "E8(1000003)", "mu": [groups.order(groups.parse_descriptor("E8(1000003)"))]}) + "\n"


# Every command in README's "Command line" block, followed by one command for
# each JSON label encoder: graph, split partition, certificate, and the two
# routes that reach the Tits group.  verify theorem-b, theorem-c and spectrum
# also hold CI's 20 s limit.
GOLDEN = [
    pin("split --group M22 --graph solvable", code=1,
        sha256="ec90c188acf0e4d31d399f0f71faf7a7f3e1a22e90523192b0d2c8b004ec6d8c"),
    pin("split --group 'Alt(7)'",
        sha256="894a7a25e3d3f0f64e63cc73cdc7c126d53122a1f104e4a472182af62da3cba3"),
    pin("compact --group M22 --graph solvable",
        sha256="e954ac7768d5ac7adc9e8c233485c8b9a207ccf68488f9dafb8c68dad44585f2"),
    pin("build --group '2B2(32)' --format dot",
        sha256="1df32ae8c929f04f0250f2611e90de2e1769b60b9dc8ee44c9e733fde4fea212"),
    pin("export --group '2G2(27)' --format json --out g.json",
        sha256="c150a8c7cf2c91cdd294eed4719fd8a3f7ca7533794319c257abcaa1239b60d8"),
    pin("verify theorem-a --max-n 300",
        sha256="8578e0ed7133cebeb52b9970b0d9834d98b296f6d2f9dfdc0e3860e9e9c73293"),
    pin("verify theorem-b", limit=20,
        sha256="f83e9ae66699f8777d73ea1f4018760b6086196893437cf73e58506199cc70cb"),
    pin("verify theorem-c", limit=20,
        sha256="7c0899c8de01948589a0d18a28b2d21bb2d2be04b4aba383ac7cbdaa0c7369a2"),
    pin("verify theorem-d --group 'E8(5)'",
        sha256="46726980d844e3ce0126cb8744a04c94ba4bd60fc42c79f00f35d84830c82a6c"),
    pin("verify zsigmondy --max-n 20",
        sha256="941d4fe4ae311ccdf8a802484d8e99f0ac0beecb20fb1c619c233c6623772fe8"),
    pin("verify spectrum", limit=20,
        sha256="3456fb897dde168eb4c9bd949bf025805d1dd412669489ebb841d8b44d06c434"),
    pin("witness prop71 --n 13 --p 2 --a 2",
        sha256="b6f243bf0aae9f088034329a073daef3939a71c2f717e40b2125c9956a339a0e"),
    pin("witness prop73 --n 19 --p 2 --format json",
        sha256="098a0877094edfe92b72947f90141eca0db711dce72d5806ab5a2064443f8d61"),
    pin("sporadic Ly",
        sha256="e77fb41c77a4285767dc11f03828d9b460501f2779d2f4b054b13a48cf8757fe"),
    pin("compact --group M22 --graph solvable --format json",
        sha256="0d55fe625e12972501b736c06338fdf47f6e82bbdb9c33e85a5df5ba4b68fe4d"),
    pin("split --group '2B2(32)' --graph compact --format json",
        sha256="88582a71898428ecd8fbbd267bf8a3f85b2e05defc0856f9dac216d4b3e6dda8"),
    pin("witness psl11 --format json",
        sha256="3b92c035952ac230995cb44638d730e80f8f1ea46d83dec677c66098252bf946"),
    pin("sporadic",
        sha256="463c810ed6c0450968bcf3c95cf5f655efdef7348952c4ed9a590c604c1a5b8d"),
    pin("sporadic --format json",
        sha256="0f238d5dda8d28bb08f0d904814201e42fca42963f497dd59b4c324441c15f44"),
    pin("verify theorem-d --group \"2F4(2)'\"",
        sha256="4e402190f30c452cd81869730a3600168f092a9ac5e2b188ea6aeaf3e5e19122"),
    pin("compact --group Tits --format json",
        sha256="1f129958ef205f6a9050c2cbf75909aa9d9b87e2447482f8b3572930cdaa37a5"),
]

# The large Alt/Sym exports (168 primes, 0.3 to 1 MB each) and two theorem-a
# sweeps past the README's bound, recorded with the whole-document json.dumps
# and the all-pairs edge build (the sweep to 1000 with label-keyed neighbour
# sets, before the bitset rows).
GOLDEN_LARGE = [
    pin("build --group 'Alt(1000)' --format json",
        sha256="5584a6efbcff849ee16efa32c1c806c5e575e2d43ba688de6a3f2cf2d29a65ab"),
    pin("build --group 'Alt(1000)' --format dot",
        sha256="772b404131d746d1be5903ef4e23cc2f4156e671b91a0ad1ad532e3c4a0c2488"),
    pin("build --group 'Sym(1000)' --format json",
        sha256="e9652b83063adabdc386743256bbfca71543a0aac4f4d81cedc119e5ff57b954"),
    pin("build --group 'Sym(1000)' --format dot",
        sha256="61c35b16bd942f082e2b309d74ade50a8e31bb95d57c61836a1e5e15b2158152"),
    pin("compact --group 'Alt(1000)' --format json",
        sha256="66e9d8556b32fc1174bbea6034cb74fd9e0aaebd9dba5ecbb2f23db3cb7122fc"),
    pin("compact --group 'Alt(1000)' --format dot",
        sha256="b269eedfb05a27efb099c34cb6702156909651b6ae1441276eca1e1f7a113dcb"),
    pin("compact --group 'Sym(1000)' --format json",
        sha256="e416fee28977c8da0cc1627d79404da508d5f1703054edf61fee713f8210984f"),
    pin("compact --group 'Sym(1000)' --format dot",
        sha256="4161f114450235f409988984c3de7731da3e0b6e3abc7640f9322d4c01ec8ae0"),
    pin("verify theorem-a --max-n 320",
        sha256="95a9bf595474d57cb0b72c8e21d19e601207ebc1ecd21409f23b36ec662b0eeb"),
    pin("verify theorem-a --max-n 1000",
        sha256="5f10a5f7e139bc8bbb36f6432a42df47ed915924d892702dbeff83df6fbd06f0"),
    # The table format and a compact graph at degree 3000 (6.6 MB), recorded
    # with one f-string per edge and json.dumps(indent=2) per label.
    pin("build --group 'Alt(1000)'",
        sha256="eba6dffe87c8b62d7a9d332c430404533fdba0f43717c881bb64f7e6968ce4c2"),
    pin("compact --group 'Sym(1000)'",
        sha256="d350b4f9e808518ed1c5ace7e307abadb025fc005ff29a802bed10c9ae6e8b4a"),
    pin("compact --group 'Alt(3000)' --format json",
        sha256="521cc363c1b34c4dd82bc14c03734dfa1346243c300249be809a8a5d39a8a6e3"),
    # The split verb at scale: the degree route's partition, recorded with the
    # clique side sorted by label-keyed degree lookups.
    pin("split --group 'Sym(1000)' --format json",
        sha256="00e4ee4354a2dd4e7d98050c7a570dcde9df0e550b3a976436b33228b8b7da7c"),
    pin("split --group 'Alt(1000)'",
        sha256="061583098d171292501fcc297920eba42d9c19f37e0db39eabfbdb6c00929e27"),
    # The linear-group witness where Phi_69(p) is hard to factor, recorded
    # when each wing was the min of the fully factored ppd set; within 5 s
    # each, since no full factoring of Phi_69(p) is needed.
    pin("witness prop71 --n 40 --p 5 --a 3 --format json", limit=5,
        sha256="07c2f2e41f59c8bcb2d1be266c47293e8154e082deb1b7ac6cf152e424c5ff18"),
    pin("witness prop71 --n 40 --p 7 --a 3 --format json", limit=5,
        sha256="cca4bdb2aa6719f47305cec11a7a958e3b3255b77d918d684c63e7c1d289aae9"),
]

# The --group routes that gkbuild.GRAPHS decides: the compact graph of one
# group per diagram family, of Alt(9) and of the Tits group; the closed-form
# prime graphs; M22's solvable graph.  Recorded with the four separate
# switches the table replaced.
GOLDEN_ROUTES = [
    pin("build --group 'A1(7)' --graph compact",
        sha256="fd87252a9c064ac266b0f6ea650ab029e84a7868e0b38852499cd47893027e25"),
    pin("build --group 'A2(5)' --graph compact",
        sha256="752b50620d6609848dcf81e82ed5c1eaf34dc2e6873d3b67798993e49e0cc65d"),
    pin("build --group '2A2(8)' --graph compact",
        sha256="77f177558e5b5aa2e7a005c105e8bd3e6f5a2e42e686bb0cdfd4030366998dd5"),
    pin("build --group 'B2(5)' --graph compact",
        sha256="f18a321b8348304986e3c743773a1e03ac3c28ff0e0e5f2f49852da87d42b213"),
    pin("build --group 'B3(3)' --graph compact",
        sha256="a9d9649d021f86df4bb2840c0e24333ba3e7f5dcdc584f3c2cadde8f77e2cf83"),
    pin("build --group 'B3(5)' --graph compact",
        sha256="4de2c73108b245ab7b372b64706e1103f986327ada21873a7d044115a8b977f0"),
    pin("build --group 'C3(5)' --graph compact",
        sha256="821fc0c662093480a8a8f04f6963432ce6f03aeb2f2aadbef642bcfbc6b7daba"),
    pin("build --group 'G2(4)' --graph compact",
        sha256="b1af7fb46207b5aa0197a59ac6212c689d0b98e781a5b79c704d617aa30e64bc"),
    pin("build --group 'F4(2)' --graph compact",
        sha256="2ea5c15cb21ca09caa1037644fe049c8ce1098dec65a286fe79b2e318980b43b"),
    pin("build --group 'E6(2)' --graph compact",
        sha256="905f99c2e2d93cd88dc07687f1728c29cb9c8cce6c10e99d69d0d97cbd8588e4"),
    pin("build --group '2E6(2)' --graph compact",
        sha256="feca75075833468487a7317f16b8e9dc6fb1ec665c0fec8485bc6c30c520413e"),
    pin("build --group 'E7(2)' --graph compact",
        sha256="1566d9e091558335066e1441d7bed617d2a9876755248a704ff3fa56548a25ed"),
    pin("build --group 'E8(2)' --graph compact",
        sha256="b2486fc6a97dde59f6c46cb84af7c148dc4e57db1902f841d54285b2250aff72"),
    pin("build --group '2B2(8)' --graph compact",
        sha256="def28c0143b459d94fe7a57eeea198a299e2cc6010e9ddb6e4d621920ddb3226"),
    pin("build --group '2G2(27)' --graph compact",
        sha256="84801eb55c3eb54bc7f8933fc165e40cb6f7ee8a388d0271718381f410ba1d2e"),
    pin("build --group '2F4(8)' --graph compact",
        sha256="b21ddb6446318fde6573f02213dbc062d3e150b598598e21267934baef346d44"),
    pin("build --group '3D4(2)' --graph compact",
        sha256="0b6f94faacd11ce9eab3fff42e0a2678f3193dbdc12ad3f576df8a5a56cae069"),
    pin("build --group 'Alt(9)' --graph compact",
        sha256="a24e311cef7be01434a6537325072c7d0489ce19f086ebd2f84de62cbc4fbeba"),
    pin("build --group Tits --graph compact",
        sha256="1b56d5864d73ea510fda1eacec663da8ad7b290318754920cc36c138a39af71a"),
    pin("build --group 'A1(7)' --graph prime",
        sha256="4c346ca20b5bfa2c16c64801bff5c72e7b71d2bf483b9f3c76a8efc259cf4888"),
    pin("build --group 'B2(5)' --graph prime",
        sha256="3d1f87442b2f76b2cc7dca21198f19cf54f17de1264e2ddda1f9cd5c6e05390f"),
    pin("build --group 'B3(3)' --graph prime",
        sha256="9eaec8532bfc4fc53eb3c6e602f4f28d5b0b385c9e9f27dfc999a59ed419f967"),
    pin("build --group '2B2(8)' --graph prime",
        sha256="eacc0e5128c1a2ee84c1ad2c7bf9985a1ed94717d8573940b8451ad437a413c1"),
    pin("build --group '2G2(27)' --graph prime",
        sha256="17d4c8f6a985ca569920e37096521e259679f10588ca37f2ccad78618acbde51"),
    pin("build --group M22 --graph solvable",
        sha256="5d82f14f68551eea064079ef7d4f78c3d959d1e6b65900ac33aeda2829018b4f"),
]

# The runs that CI pins under a time limit besides the ones above.
LIMITED = [
    pin("verify theorem-d --group 'A79(4)'", limit=20,
        sha256="b40ec6e7c943f65ce7071e516bd4f898c91d9c03a9a066c154ef0efef0e91879"),
    pin("verify zsigmondy --max-n 60", limit=20,
        sha256="1143d795d06ce0f90030312e98d2a49c8ccebb0f2dc7601192943aa29d8b0049"),
    # symplectic and orthogonal groups (classes from the order's factors, odd
    # and even rank 2D) and 2A11(3)
    pin(*(f"verify theorem-d --group {shlex.quote(g)}" for g in
          ["B12(3)", "C7(4)", "D7(5)", "2D6(2)", "2D5(2)", "B4(8)", "D4(9)", "2A11(3)"]),
        name="theorem-d-eta", limit=20,
        sha256="30714cb7d043fba736abb2dd240838312e57eba299396278599913892412181c"),
    # one group per diagram family and the Tits group
    pin(*(f"verify theorem-d --group {shlex.quote(g)}" for g in
          ["A1(4)", "A2(5)", "2A2(5)", "B2(3)", "B3(3)", "C3(5)", "G2(4)", "F4(2)", "E6(2)", "2E6(2)",
           "E7(2)", "E8(2)", "2B2(8)", "2G2(27)", "2F4(8)", "3D4(2)", "2F4(2)'"]),
        name="theorem-d-families", limit=20,
        sha256="fa420f0733ee2ac1f8ebb1c0c03302890632ffc971eedd6023f253044adb0db3"),
    # budget 1 on one group per diagram family and on A4(13), 2A4(13): each
    # exits 0, the classes kept without members
    pin(*(f"verify theorem-d --group {shlex.quote(g)} --budget 1" for g in
          ["A1(8)", "A2(13)", "2A2(5)", "B3(5)", "C3(5)", "G2(4)", "F4(3)", "E6(2)", "2E6(2)", "E7(2)",
           "E8(2)", "2B2(8)", "2G2(27)", "2F4(8)", "3D4(2)", "A4(13)", "2A4(13)"]),
        name="theorem-d-budget-1", limit=20,
        sha256="d3552b3aca1094c00058165f96f25111cee053a9c67e4881ecb4b3c857de6de5"),
    # budget 1 on B2 and B3(3) = C3(3): the diagrams, no factoring
    pin(*(f"verify theorem-d --group {shlex.quote(g)} --budget 1" for g in ["B2(3)", "C2(5)", "B2(8)", "B3(3)", "C3(3)"]),
        name="theorem-d-b2-budget-1", limit=20,
        sha256="a1218c618c2dea2028e2bfafb313fa532e9827cfa843add28d0b7e646cf944ab"),
    # the benchmark's heaviest classical requests, recorded before the shared
    # class labels and the number-theory memos
    pin(*(f"verify theorem-d --group {shlex.quote(g)}" for g in ["B32(7)", "2A32(8)", "B64(2)", "C32(5)", "2A48(3)"]),
        name="theorem-d-high-rank", limit=20,
        sha256="bfc7814e810880c8c32d6cfd11c52247921bbda858361d309b50cfc1e78e3a25"),
    pin("verify theorem-d --group 'B2(170141183460469231731687303715884105727)' --budget 1", limit=5),
    # refused before any factoring, with one error line
    pin("split --group 'A200(4)' --graph compact", code=2, stderr=ONE_ERROR_LINE, limit=5),
    pin("build --group M11 --graph compact", code=2, stderr=ONE_ERROR_LINE, limit=5),
    pin("compact --group 'D7(5)'", code=2, stderr=ONE_ERROR_LINE, limit=5),
    pin("compact --group 'Sym(5000)' --format json", limit=20,
        sha256="d85e2a00fbe8e80d60a7b11bcf4c0ef56e9aec3e3111770e6f851708dc76a352"),
    pin("build --group 'Alt(5000)' --format dot", limit=20,
        sha256="3e6c8ae3d7cd7e1a624ec7a62c268f0ccc58d3e31a795dcb4ae602104778797f"),
    # the file bytes of --out in each format: a file ends in one newline, so
    # DOT's closing line gets none added and JSON and the table get one
    pin("build --group 'Alt(1000)' --format dot --out g.dot", limit=5,
        sha256="ab983d1fb98b6aa269576972669552ce7307771872c993cadc6421054e439a92"),
    pin("compact --group 'Sym(1000)' --out g.txt", limit=5,
        sha256="d350b4f9e808518ed1c5ace7e307abadb025fc005ff29a802bed10c9ae6e8b4a"),
    # an edgeless graph
    pin("build --group 'Sym(3)' --format json --out g.json", limit=5,
        sha256="295d2a98bfd1b060a876098a72392bd6ad23329e30f32ecca669d83ab5370c4f"),
    pin("build --group 'Sym(3)' --format dot --out g.dot", limit=5,
        sha256="72da1fa05346ec398988f603fdb708deb98e751685c2b9c15e09dce5bc192a06"),
    # the graph table inside a witness header
    pin("witness psl11", limit=5,
        sha256="2122acf5c21537b4897b0cff8f7349af4ff3c24f661b40a0794a4c5f59327a51"),
    pin("split --group 'Alt(3000)' --format json", limit=20,
        sha256="e4ad2524f943142a5e482149a35a4c3f8b4f3dc93b36284a25a8db31f5a8336a"),
    # the 2-SAT decides before any witness scan
    pin("split --group 'Sym(5000)' --format json", limit=5,
        sha256="5540a432b5c480e9c763a3574bdfcfbb9c304307ba2965d7cb62d99690e3644f"),
    # two 800-vertex graphs with the witness on the top labels: not split
    pin("split --in witness-c5-800.json", code=1, limit=5,
        inputs=[("witness-c5-800.json", lambda: _graph_doc(*oracles.witness_last_graph(800, "C5")))],
        sha256="09bd1c9b93e024cc10b705e41067bc9a3339c194dcdd00a8f0a576ce45dd53ea"),
    pin("split --in witness-2k2-800.json", code=1, limit=5,
        inputs=[("witness-2k2-800.json", lambda: _graph_doc(*oracles.witness_last_graph(800, "2K2")))],
        sha256="9e4841f8627bb198d4e62abeae26ead7fd92cf5370fb7621a0c97c767096bfbc"),
    # a class-labelled 2K2: the witness classes keep their members
    pin("split --in classes-2k2.json --format json", code=1, limit=5,
        inputs=[("classes-2k2.json", _graph_doc([_R5_11, _R7_29, _R5_13, _R7_43], [[_R5_11, _R7_29], [_R5_13, _R7_43]]))],
        sha256="6003fa80d1225d24e0929f5cb1529a38ad50d6b6ca54adf74c8375bd8857240c"),
    # prime sets compared by gcds, not by factoring the order
    pin("split --spectrum e8-spectrum.json", code=2, stderr=ERROR, limit=5,
        inputs=[("e8-spectrum.json", '{"group": "E8(1000003)", "mu": [2]}\n')]),
    # the spectrum build factors within the budget
    pin("split --spectrum e8-order-spectrum.json --budget 1", code=3, stderr=ERROR, limit=5,
        inputs=[("e8-order-spectrum.json", _e8_order_spectrum)]),
    # more element orders than groups.MAX_SPECTRUM_ORDERS: refused before
    # the maximal ones are sought, a search quadratic in their count
    pin("split --spectrum orders-20000.json", code=2, stderr=ONE_ERROR_LINE, limit=5,
        inputs=[("orders-20000.json", lambda: json.dumps({"group": "Alt(100000)", "mu": list(range(2, 20002))}) + "\n")]),
    # least members found without factoring
    pin("witness prop72 --u 5 --w 13 --p 5 --format json", limit=5,
        sha256="2379aeeb9e168cfae90772b9fbaeb451f13eacd2192cc18bafc8e3a1e4143aca"),
]

# Exit codes and error lines that CI checks with no time limit.
UNLIMITED = [
    pin("--help"),
    pin("verify --help"),
    pin("split --group 'Alt(7)' --format xml", code=2, stderr=ERROR),
    pin("split --in nested-2000.json", code=2, stderr=ERROR,
        inputs=[("nested-2000.json", '{"vertices": [' + "[" * 2000 + "]" * 2000 + '], "edges": []}\n')]),
    pin("split --in float-member.json", code=2, stderr=ERROR,
        inputs=[("float-member.json", '{"vertices": [{"class": {"name": "R1", "members": [1.5]}}], "edges": []}\n')]),
]

# Runs that take seconds each, left to run_pins.py: 10.0 s in-process of the
# 10.2 s that every limited run takes.
CI_ONLY = [
    pin("verify theorem-a --max-n 2000", limit=20,
        sha256="fd4e1af435f84162472400518098f2f76da9c015e85a19424a6819899fd14b62"),
    # Brent rho on x^s + c over the cyclotomic pieces
    pin("verify theorem-d --group 'A100(3)'", limit=20,
        sha256="8c4db80891db0886b2d38d17dae705a1ec6eb33362c1a71839d178c9452de306"),
    # classes the default budget cannot factor are kept without members
    pin("verify theorem-d --group 'E8(1000003)'", limit=20),
    # a budget exhaustion on integers above Python's 4,300-digit str limit:
    # the classes are kept without members, with no traceback
    pin("verify theorem-d --group 'A20000(2)' --budget 1", limit=30),
    # quotient rows from a blocked byte transpose
    pin("verify theorem-d --group 'Alt(100000)'", limit=20,
        sha256="26122bf0c74870ec695affa4d71643b76b50f56d351d8779114642184b3d623e"),
]

PINS = GOLDEN + GOLDEN_LARGE + GOLDEN_ROUTES + LIMITED + UNLIMITED + CI_ONLY
