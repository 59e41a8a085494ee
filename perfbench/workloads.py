"""The three benchmark workloads: seeded inputs, set-up, ops and checks.

A workload generates plain-data ops from the seed with the benchmark's own
reference arithmetic (refarith) and never imports triwaring to do so. After
set-up, prepare() turns an op into a zero-argument callable on program
objects; the worker times only that call. check() then verifies the
outcome against refarith or against the recorded facts and returns "ok"
or "typed" (a TriwaringError, which the package documents as a legitimate
outcome below the theorem's threshold), or raises WrongAnswer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import refarith as ra

HERE = os.path.dirname(os.path.abspath(__file__))

# presentation rows of the catalogue (n <= 6), as in the package's tables
TABLE_ROWS = [
    "123", "1234", "12|34:13", "12345", "12|345:13", "123|45:24",
    "145|23:24", "125|34:13", "123456", "12|3456:13", "123|456:14",
    "1456|23:24", "123|456:24", "124|356:13", "14|23|56:15|25",
    "1256|34:13", "12|34|56:13|35", "134|256:35", "156|234:35",
    "1234|56:35", "12|36|45:13|14", "145|236:24", "1236|45:34",
    "126|345:13", "1256|34:13|35",
]


class WrongAnswer(Exception):
    """The program returned an answer the benchmark's checks reject."""


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


def _modulus(p: int, m: int) -> tuple[int, ...]:
    return ra.irreducible_moduli(p, m)[0] if m > 1 else (0, 1)


def _text(rows) -> str:
    n = len(rows)
    return ";".join(",".join(str(rows[i][j]) for j in range(i, n))
                    for i in range(n))


def _random_packed(rng: random.Random, q: int, n: int) -> list[int]:
    return [rng.randrange(q) for _ in range(n * (n + 1) // 2)]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _check_parts(F: ra.RefField, target_rows, parts_rows, k: int, what: str):
    for P in parts_rows:
        _require(len(P) == len(target_rows), f"{what}: part has wrong size")
        _require(all(0 <= v < F.q for row in P for v in row),
                 f"{what}: part entry outside [0, q)")
        _require(all(P[i][j] == 0 for i in range(len(P)) for j in range(i)),
                 f"{what}: part is not upper-triangular")
    _require(ra.power_sum(F, parts_rows, k) == target_rows,
             f"{what}: sum of {k}-th powers differs from the target")


class Workload:
    """Base: one closed-loop client; subclasses define the op mix."""

    name = ""

    def __init__(self, spec: dict, smoke: bool):
        self.spec = spec["workloads"][self.name]
        self.smoke = smoke
        self.tw = None

    def generate(self, seed: int) -> tuple[list[dict], list[dict]]:
        """(timed ops, warm-up ops) as plain data; every worker process of
        a run draws the same ones."""
        raise NotImplementedError

    def setup(self, tw, warm_ops: list[dict]) -> list:
        """Build program state and run the warm-up ops; returns their
        outcomes so they can be checked after set-up is timed."""
        raise NotImplementedError

    def prepare(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, ok: bool, value) -> str:
        raise NotImplementedError

    def execute(self, fn):
        try:
            return True, fn()
        except self.tw.errors.TriwaringError as err:
            return False, err

    def run_warm(self, warm_ops):
        return [self.execute(self.prepare(op)) for op in warm_ops]


# -- decompose-warm -----------------------------------------------------


class DecomposeWarm(Workload):
    name = "decompose-warm"

    def _cells(self):
        for sl in self.spec["slices"]:
            fields = sl["fields"][:1] if self.smoke else sl["fields"]
            ns = sl["n"][:1] if self.smoke else sl["n"]
            for p, m in fields:
                for n in ns:
                    for k in sl["k"]:
                        for call in sl.get("calls", self.spec["calls"]):
                            yield p, m, n, k, call

    def _ops(self, rng: random.Random, per_cell: int) -> list[dict]:
        ops = []
        for p, m, n, k, call in self._cells():
            for _ in range(per_cell):
                ops.append({"p": p, "m": m, "n": n, "k": k, "call": call,
                            "entries": _random_packed(rng, p ** m, n)})
        rng.shuffle(ops)
        return ops

    def generate(self, seed):
        self.ref = {}
        for p, m, _, _, _ in self._cells():
            if (p, m) not in self.ref:
                self.ref[p, m] = ra.RefField(p, m, _modulus(p, m))
        per_cell = 1 if self.smoke else self.spec["per_cell"]
        ops = self._ops(random.Random(f"{seed}/decompose-warm"),
                        per_cell)
        warm_ops = self._ops(
            random.Random(f"{seed}/decompose-warm/warm"), 1)
        return ops, warm_ops

    def setup(self, tw, warm_ops):
        self.tw = tw
        self.fields = {key: tw.make_field(key[0], key[1], R.modulus)
                       for key, R in self.ref.items()}
        for (p, m), F in self.fields.items():
            for k in sorted({c[3] for c in self._cells() if c[:2] == (p, m)}):
                for lam in range(F.q):
                    try:
                        tw.decompose_two(tw.UTMatrix(F, 1, (lam,)), k)
                    except tw.errors.TriwaringError:
                        pass
        return self.run_warm(warm_ops)

    def prepare(self, op):
        F = self.fields[op["p"], op["m"]]
        C = self.tw.UTMatrix(F, op["n"], tuple(op["entries"]))
        fn = getattr(self.tw, op["call"])
        k = op["k"]
        return lambda: fn(C, k)

    def check(self, op, ok, value):
        if not ok:
            return "typed"
        R = self.ref[op["p"], op["m"]]
        n, k = op["n"], op["k"]
        what = f"{op['call']} T_{n}(F_{R.q}) k={k}"
        want = 2 if op["call"] == "decompose_two" else 3
        _require(len(value.parts) == want, f"{what}: {len(value.parts)} parts")
        _require(value.verified is True, f"{what}: result not marked verified")
        _check_parts(R, ra.unpack(n, op["entries"]),
                     [ra.unpack(n, P.entries) for P in value.parts], k, what)
        return "ok"


# -- cli-cold -----------------------------------------------------------


class CliCold(Workload):
    name = "cli-cold"

    def _op(self, rng, p, m, modulus, kind) -> dict:
        R = ra.RefField(p, m, modulus)
        q = R.q
        k = 3 if q % 4 == 3 else rng.choice((2, 3))
        n = self.spec["matrix_n"]
        base = ["--q", R.spec(), "--k", str(k), "--json"]
        op = {"kind": kind, "p": p, "m": m, "modulus": list(modulus), "k": k}
        if kind in ("decompose2", "decompose3"):
            rows = ra.unpack(n, _random_packed(rng, q, n))
            op["text"] = _text(rows)
            op["argv"] = ["decompose", *base, "--matrix", op["text"],
                          "--parts", kind[-1]]
        elif kind in ("solve", "classify"):
            op["lam"] = rng.randrange(q)
            op["argv"] = [kind, *base, "--lambda", str(op["lam"])]
        elif kind == "root":
            image = sorted({R.pow(a, k) for a in range(1, q)})
            rows = ra.unpack(n, _random_packed(rng, q, n))
            for i, v in enumerate(rng.sample(image, n)):
                rows[i][i] = v
            op["text"] = _text(rows)
            op["argv"] = ["root", *base, "--matrix", op["text"]]
        elif kind == "table":
            op["row"] = rng.choice(TABLE_ROWS)
            op["argv"] = ["table", *base, "--row", op["row"]]
        else:
            raise ValueError(f"unknown kind {kind}")
        return op

    def generate(self, seed):
        rng = random.Random(f"{seed}/cli-cold")
        kinds = self.spec["kinds"]
        fields = self.spec["fields"][:2] if self.smoke else self.spec["fields"]
        ops = []
        for p, m in fields:
            moduli = ra.irreducible_moduli(p, m)
            rng.shuffle(moduli)
            if self.smoke:
                moduli = moduli[:len(kinds)]
            for i, modulus in enumerate(moduli):
                ops.append(self._op(rng, p, m, modulus, kinds[i % len(kinds)]))
        rng.shuffle(ops)
        warm_rng = random.Random(f"{seed}/cli-cold/warm")
        moduli9 = ra.irreducible_moduli(3, 2)
        warm_ops = [self._op(warm_rng, 3, 2, moduli9[i % len(moduli9)], kind)
                    for i, kind in enumerate(kinds)]
        return ops, warm_ops

    def setup(self, tw, warm_ops):
        import triwaring.cli
        self.tw = tw
        self.main = triwaring.cli.main
        return self.run_warm(warm_ops)

    def prepare(self, op):
        main, argv = self.main, op["argv"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            return rc, buf.getvalue()
        return run

    def check(self, op, ok, value):
        what = " ".join(op["argv"][:3])
        _require(ok, f"{what}: TriwaringError escaped the CLI: {value!r}")
        rc, out = value
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            raise WrongAnswer(f"{what}: output is not JSON: {out[:200]!r}")
        if rc == 1:
            obstruction = payload.get("decomposition", {}).get("obstruction")
            _require("failure" in payload or obstruction is True,
                     f"{what}: exit 1 without a typed failure or obstruction")
            return "typed"
        _require(rc == 0, f"{what}: exit code {rc}")
        R = ra.RefField(op["p"], op["m"], tuple(op["modulus"]))
        getattr(self, "_check_" + op["kind"].rstrip("23"))(R, op, payload, what)
        return "ok"

    def _check_decompose(self, R, op, payload, what):
        k = op["k"]
        _require(payload["target"] == op["text"] and payload["k"] == k,
                 f"{what}: echoed target or k differ")
        _require(len(payload["parts"]) == int(op["kind"][-1]),
                 f"{what}: wrong number of parts")
        _require(payload["verified"] is True, f"{what}: not verified")
        _check_parts(R, ra.parse_text(op["text"]),
                     [ra.parse_text(t) for t in payload["parts"]], k, what)

    @staticmethod
    def _power_fibers(R, k):
        fibers = {}
        for x in range(R.q):
            fibers.setdefault(R.pow(x, k), []).append(x)
        return fibers

    def _check_solve(self, R, op, payload, what):
        k, lam = op["k"], op["lam"]
        fibers = self._power_fibers(R, k)
        classes, u_size = [], 0
        for v in sorted(fibers):
            w = R.sub(lam, v)
            if w not in fibers:
                continue
            if v == w:
                u_size += len(fibers[v]) ** 2
            else:
                classes.append({"sig": [v, w],
                                "size": len(fibers[v]) * len(fibers[w]),
                                "rep": [fibers[v][0], fibers[w][0]]})
        want = {"q": R.q, "k": k, "lambda": lam, "classes": classes,
                "U_size": u_size}
        _require(payload == want, f"{what}: classification report differs")

    def _check_classify(self, R, op, payload, what):
        k, lam = op["k"], op["lam"]
        _require((payload["q"], payload["k"], payload["lambda"]) == (R.q, k, lam),
                 f"{what}: echoed q, k or lambda differ")
        fibers = self._power_fibers(R, k)
        expected = sum(len(xs) * len(fibers.get(R.sub(lam, v), ()))
                       for v, xs in fibers.items())
        seen = set()
        for x, y in payload["U"]:
            _require(R.pow(x, k) == R.pow(y, k), f"{what}: U member {x, y}")
            seen.add((x, y))
        sigs = [tuple(c["sig"]) for c in payload["classes"]]
        _require(sigs == sorted(set(sigs)), f"{what}: signatures not sorted")
        for c in payload["classes"]:
            xv, yv = c["sig"]
            _require(xv != yv, f"{what}: class with x^k = y^k")
            for x, y in c["solutions"]:
                _require((R.pow(x, k), R.pow(y, k)) == (xv, yv),
                         f"{what}: solution {x, y} outside class {xv, yv}")
                seen.add((x, y))
        _require(all(R.add(R.pow(x, k), R.pow(y, k)) == lam for x, y in seen),
                 f"{what}: a listed pair does not solve the equation")
        count = len(payload["U"]) + sum(len(c["solutions"])
                                        for c in payload["classes"])
        _require(count == len(seen) == expected,
                 f"{what}: {count} solutions listed, {expected} exist")

    def _check_root(self, R, op, payload, what):
        _require(payload["matrix"] == op["text"] and payload["verified"] is True,
                 f"{what}: echoed matrix or verified flag wrong")
        _check_parts(R, ra.parse_text(op["text"]),
                     [ra.parse_text(payload["root"])], op["k"], what)

    def _check_table(self, R, op, payload, what):
        row = op["row"]
        n = max(int(ch) for ch in row if ch.isdigit())
        M = ra.presentation_rows(row, n)
        _require(payload["row"] == row and payload["n"] == n,
                 f"{what}: echoed row or n differ")
        _require(ra.parse_text(payload["matrix"]) == M,
                 f"{what}: presentation matrix differs")
        _require(payload["connected"] is ra.connected(M),
                 f"{what}: connectivity differs")
        dec = payload["decomposition"]
        _require(dec["verified"] is True and len(dec["parts"]) == 2,
                 f"{what}: decomposition not verified")
        _check_parts(R, M, [ra.parse_text(t) for t in dec["parts"]],
                     op["k"], what)


# -- oracle-exhaustive --------------------------------------------------


def _decode(index: int, q: int, width: int) -> list[int]:
    """Inverse of the facts table order (first entry most significant)."""
    return list(reversed(ra.digits(index, q, width)))


class OracleExhaustive(Workload):
    name = "oracle-exhaustive"

    def generate(self, seed):
        with open(os.path.join(HERE, "facts.json")) as fh:
            tables = json.load(fh)["tables"]
        rng = random.Random(f"{seed}/oracle-exhaustive")
        mw, bn = self.spec["min_waring"], self.spec["bn_conjugate"]
        algebras = mw["algebras"][:2] if self.smoke else mw["algebras"]
        self.ref = {}
        ops, warm_ops = [], []
        for p, m, n in algebras:
            R = self.ref.setdefault((p, m), ra.RefField(p, m, _modulus(p, m)))
            for k in mw["k"]:
                table = tables[f"{R.q}/{n}/{k}"]
                _require(table["modulus"] == list(R.modulus),
                         "facts table was made over another modulus")
                mins = table["mins"]
                for c in sorted(set(mins)):
                    hits = [i for i, v in enumerate(mins) if v == c]
                    value = int(c)
                    expect = value if 0 < value <= mw["cap"] else None
                    for i in rng.sample(hits, min(mw["per_class"], len(hits))):
                        ops.append({
                            "kind": "min_waring", "p": p, "m": m, "n": n,
                            "k": k, "cap": mw["cap"], "expect": expect,
                            "entries": _decode(i, R.q, n * (n + 1) // 2)})
                warm_ops.append({"kind": "min_waring", "p": p, "m": m, "n": n,
                                 "k": k, "cap": mw["cap"], "expect": 1,
                                 "entries": [0] * (n * (n + 1) // 2)})
        bn_algebras = bn["algebras"][:1] if self.smoke else bn["algebras"]
        for p, m, n in bn_algebras:
            R = self.ref.setdefault((p, m), ra.RefField(p, m, _modulus(p, m)))
            for _ in range(bn["conjugate"]):
                ops.append(self._conjugate_pair(rng, R, n))
            for _ in range(bn["separated"]):
                ops.append(self._separated_pair(rng, R, n))
            eye = ra.pack(ra.identity(n))
            warm_ops.append({"kind": "bn", "p": p, "m": m, "n": n,
                             "a": list(eye), "b": list(eye), "expect": True})
        rng.shuffle(ops)
        return ops, warm_ops

    @staticmethod
    def _conjugate_pair(rng, R, n):
        A = ra.unpack(n, _random_packed(rng, R.q, n))
        P = ra.unpack(n, _random_packed(rng, R.q, n))
        for i in range(n):
            P[i][i] = rng.randrange(1, R.q)
        B = ra.mat_mul(R, ra.ut_inverse(R, P), ra.mat_mul(R, A, P))
        return {"kind": "bn", "p": R.p, "m": R.m, "n": n,
                "a": list(ra.pack(A)), "b": list(ra.pack(B)), "expect": True}

    @staticmethod
    def _separated_pair(rng, R, n):
        """B keeps A's diagonal (so the ordered diagonal alone does not
        separate them) and differs in a rank of some (B - cI)^j."""
        for _ in range(10000):
            A = ra.unpack(n, _random_packed(rng, R.q, n))
            B = ra.unpack(n, _random_packed(rng, R.q, n))
            for i in range(n):
                B[i][i] = A[i][i]
            if ra.similarity_profile(R, A) != ra.similarity_profile(R, B):
                return {"kind": "bn", "p": R.p, "m": R.m, "n": n,
                        "a": list(ra.pack(A)), "b": list(ra.pack(B)),
                        "expect": False}
        raise RuntimeError("no separated pair found")  # pragma: no cover

    def setup(self, tw, warm_ops):
        self.tw = tw
        self.fields = {key: tw.make_field(key[0], key[1], R.modulus)
                       for key, R in self.ref.items()}
        return self.run_warm(warm_ops)

    def prepare(self, op):
        tw = self.tw
        F = self.fields[op["p"], op["m"]]
        n = op["n"]
        if op["kind"] == "bn":
            A = tw.UTMatrix(F, n, tuple(op["a"]))
            B = tw.UTMatrix(F, n, tuple(op["b"]))
            return lambda: tw.bn_conjugate(F, A, B)
        C = tw.UTMatrix(F, n, tuple(op["entries"]))
        k, cap = op["k"], op["cap"]

        def run():
            m = tw.min_waring_number(F, C, k, cap)
            try:
                two = tw.decompose_two(C, k)
            except tw.errors.TriwaringError:
                two = None
            return m, two
        return run

    def check(self, op, ok, value):
        if not ok:
            return "typed"
        R = self.ref[op["p"], op["m"]]
        n = op["n"]
        if op["kind"] == "bn":
            what = f"bn_conjugate T_{n}(F_{R.q})"
            _require((value is not None) == op["expect"],
                     f"{what}: answered {value is not None}, "
                     f"known {op['expect']}")
            if value is not None:
                W = ra.unpack(n, value.entries)
                A, B = ra.unpack(n, op["a"]), ra.unpack(n, op["b"])
                _require(all(W[i][i] for i in range(n)),
                         f"{what}: witness is singular")
                _require(ra.mat_mul(R, A, W) == ra.mat_mul(R, W, B),
                         f"{what}: witness does not conjugate")
            return "ok"
        m, two = value
        k = op["k"]
        what = f"min_waring_number T_{n}(F_{R.q}) k={k}"
        _require(m == op["expect"], f"{what}: answered {m}, facts say "
                                    f"{op['expect']}")
        if two is not None:
            _require(m is not None and m <= 2,
                     f"{what}: decompose_two succeeded where min is {m}")
            _check_parts(R, ra.unpack(n, op["entries"]),
                         [ra.unpack(n, P.entries) for P in two.parts], k,
                         f"{what} cross-check")
        return "ok"


WORKLOADS = {w.name: w for w in (DecomposeWarm, CliCold, OracleExhaustive)}
