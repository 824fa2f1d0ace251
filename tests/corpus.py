"""Signature generators and the contract corpus: digests of what godelgen
assigns, pinned in tests/data/contract.json.

Each corpus signature has three digests, kept apart so that rewording a
diagnostic cannot hide a code change:
  a  validate's diagnostics, or the cardinality of each class;
  b  the tags of each class, or the NoWellFoundedPlan list;
  c  print_term of codes 0..39 of each class representative, decoded at
     fuel 5,000, with the exception's name wherever a decode fails.
The file also holds, per signature in test_adequacy.BUDGETS, a digest of
verify_all's json_dict at that budget (checked in test_examples_verify).
A digest is the first 16 hex digits of a SHA-256.

Run `PYTHONPATH=src python tests/corpus.py` to rewrite the file.  A
changed b, c or verify digest means a code changed; a changed a digest
means a diagnostic or a cardinality did.
"""

import hashlib
import json
import random
from pathlib import Path

from conftest import DATA, SIG_NAMES, sig_text
from godelgen.adequacy import verify_all
from godelgen.codec import assign_tags, class_label, decode_closed
from godelgen.errors import GodelgenError, NoWellFoundedPlan
from godelgen.sigmodel import parse_signature, validate
from godelgen.termrep import print_term

CONTRACT = DATA / "contract.json"
WIDE_SIG = Path(__file__).parent.parent / "perfbench" / "data" / "wide.sig"
SEEDS = 200
CODES = 40
FUEL = 5_000


def chain_signature(k):
    # one base constructor declared after k - 1 recursive ones
    return "\n".join(
        [sig_text("nat"), "t : type."]
        + [f"r{i} : t -> t -> t." for i in range(k - 1)]
        + ["b : nat -> t."]
    )


def random_signature(rng):
    # up to five infinite constructors per class, the base one anywhere
    types = [f"t{i}" for i in range(rng.randint(1, 3))]
    lines = [sig_text("nat")] + [f"{t} : type." for t in types]
    for t in types:
        ctors = []
        for _ in range(rng.randint(1, 4)):
            args = [rng.choice(types + [t]) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.2:
                args[0] = f"({rng.choice(types)} -> {t})"
            ctors.append(args)
        if rng.random() < 0.8:
            ctors.insert(rng.randint(0, len(ctors)), ["nat"])
        for j, args in enumerate(ctors):
            lines.append(f"{t}c{j} : " + "".join(a + " -> " for a in args) + t + ".")
    return "\n".join(lines)


def random_indexed_signature(rng):
    # nat-indexed families f0, f1 with zero, successor and variable result
    # patterns, explicit abstractions and binders, plus g indexed by the
    # finite type b, whose values may be pairs of c's
    lines = [sig_text("nat"), "c : type. c0 : c. c1 : c.", "b : type."]
    bvals = [f"b{j}" for j in range(rng.randint(1, 2))]
    lines += [f"{v} : b." for v in bvals]
    if rng.random() < 0.4:
        lines.append("bp : c -> c -> b.")
        bvals.append(f"(bp {rng.choice(['c0', 'c1'])} {rng.choice(['c0', 'c1'])})")
    fams = [f"f{i}" for i in range(rng.randint(1, 2))]
    lines += [f"{f} : nat -> type." for f in fams] + ["g : b -> type."]

    def nat_ix(scope):
        ix = rng.choice(["z", *scope])
        return f"(s {ix})" if rng.random() < 0.3 else ix

    def fin_ix(scope):
        return rng.choice(bvals + scope)

    def arg(nat_scope, fin_scope):
        r = rng.random()
        if r < 0.15:
            return "nat"
        if r < 0.3:
            return f"g {fin_ix(fin_scope)}"
        return f"{rng.choice(fams)} {nat_ix(nat_scope)}"

    for fam in fams + ["g"]:
        for j in range(rng.randint(1, 4)):
            nat_scope, fin_scope, pi = [], [], ""
            if fam == "g":
                result = rng.choice(bvals + ["X"])
                fin_scope = ["X"] if result == "X" else []
            else:
                result = rng.choice(["z", "(s N)", "N"])
                nat_scope = ["N"] if "N" in result else []
            if rng.random() < 0.2:
                pi, nat_scope = "{M : nat} ", nat_scope + ["M"]
            args = [arg(nat_scope, fin_scope) for _ in range(rng.randint(0, 2))]
            if args and rng.random() < 0.25:
                bound = rng.choice(fams)
                args[0] = f"{bound} {nat_ix(nat_scope)} -> {args[0]}"
            arrows = "".join(f"({a}) -> " for a in args)
            lines.append(f"{fam}c{j} : {pi}{arrows}{fam} {result}.")
    return "\n".join(lines)


def corpus():
    """(name, signature text) of every corpus signature."""
    out = [(name, sig_text(name)) for name in SIG_NAMES]
    out.append(("wide", WIDE_SIG.read_text()))
    out += [(f"chain{k}", chain_signature(k)) for k in range(2, 14)]
    out += [(f"random{i}", random_signature(random.Random(i))) for i in range(SEEDS)]
    out += [
        (f"indexed{i}", random_indexed_signature(random.Random(i))) for i in range(SEEDS)
    ]
    return out


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def planned_tags(vsig) -> tuple:
    """assign_tags' plan and the lines of the b digest: each class's tags,
    or (with no plan) the NoWellFoundedPlan list."""
    try:
        plan = assign_tags(vsig)
    except NoWellFoundedPlan as exc:
        return None, ["NoWellFoundedPlan", *exc.failed_classes]
    return plan, [f"{cp.label}: {' '.join(cp.tags)}" for cp in plan.classes.values()]


def signature_digests(text: str) -> dict[str, str | None]:
    """The a, b and c digests of one signature; b and c are None when it
    is invalid, and c is None when it has no plan."""
    try:
        vsig = validate(parse_signature(text))
    except GodelgenError as exc:
        return {"a": digest([type(exc).__name__, str(exc)]), "b": None, "c": None}
    a = [
        f"{class_label(decl.name, cls)}: {vsig.cardinality(decl.name, cls)}"
        for decl in vsig.decls
        for cls in vsig.classes(decl.name)
    ]
    plan, b = planned_tags(vsig)
    if plan is None:
        return {"a": digest(a), "b": digest(b), "c": None}
    c = []
    for decl in vsig.decls:
        for cls, reps in vsig.class_reps(decl.name):
            card = vsig.cardinality(decl.name, cls)
            for index in reps:
                for code in card.codes_below(CODES):
                    try:
                        term = decode_closed(plan, decl.name, index, code, FUEL)
                        shown = print_term(vsig, term, index=index)
                    except GodelgenError as exc:
                        shown = type(exc).__name__
                    c.append(f"{decl.name} {index} {code}: {shown}")
    return {"a": digest(a), "b": digest(b), "c": digest(c)}


def report_digest(json_dict: dict) -> str:
    return digest([json.dumps(json_dict, sort_keys=True)])


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


def main() -> None:
    from test_adequacy import BUDGETS  # here: test_adequacy imports this module

    signatures = {name: signature_digests(text) for name, text in corpus()}
    verify = {}
    for name in sorted(BUDGETS):
        plan = assign_tags(validate(parse_signature(sig_text(name))))
        verify[name] = report_digest(verify_all(plan, BUDGETS[name]).json_dict(name))
    contract = {"signatures": signatures, "verify": verify}
    CONTRACT.write_text(json.dumps(contract, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CONTRACT} ({len(signatures)} signatures, {len(verify)} reports)")


if __name__ == "__main__":
    main()
