"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .checkpoint import checkpoint_load
from .conllu import Sentence, load_conllu, write_conllu
from .config import RunConfig, load_config_file
from .errors import DataError, UsageError
from .graphs import DepTree, RelationVocab, dep_tree_to_graph
from .model import DependencyParserModel, ModelConfig
from .optim import grad_check
from .refine import RefinementConfig, refinement_loss, refine
from .training import evaluate, parse_corpus, train
from .vocab import Vocab

log = logging.getLogger("g2gt")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-file")
    p.add_argument("--dev-file")
    p.add_argument("--model-out")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--stop-at-las", type=float, dest="stop_at_las")
    p.add_argument("--t-max", type=int, dest="t_max")
    p.add_argument("--t-train", type=int, dest="t_train")
    p.add_argument("--ablate-key-term", action="store_true",
                   help="drop the key-relation score term")
    p.add_argument("--ablate-value-term", action="store_true",
                   help="drop the relation term on attention values")


def _overrides_from(args: argparse.Namespace) -> dict:
    keys = RunConfig.field_names()
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    if args.ablate_key_term:
        overrides["use_key_term"] = False
    if args.ablate_value_term:
        overrides["use_value_term"] = False
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="g2gt",
                             description="Graph-conditioned parser with "
                                         "iterative graph refinement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a parser", parents=[])
    p_train.add_argument("--config", help="YAML run configuration")
    _add_override_flags(p_train)

    p_parse = sub.add_parser("parse", help="parse a CoNLL-U file")
    p_parse.add_argument("--checkpoint", required=True)
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--output", required=True)
    p_parse.add_argument("--t-max", type=int, dest="t_max",
                         default=RefinementConfig.t_max)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)

    p_gc = sub.add_parser("gradcheck",
                          help="verify gradients of a small random model "
                               "against central differences")
    p_gc.add_argument("--d", type=int, default=8)
    p_gc.add_argument("--heads", type=int, default=2)
    p_gc.add_argument("--tokens", type=int, default=4)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--eps", type=float, default=1e-5)
    p_gc.add_argument("--t-train", type=int, dest="t_train",
                      default=RefinementConfig.t_train)
    p_gc.add_argument("--scale", type=float, default=0.5,
                      help="parameter scale; training-time init (0.02) leaves "
                           "some gradients below the finite-difference noise "
                           "floor, so the check uses a larger scale")

    p_demo = sub.add_parser("refine-demo",
                            help="print the refinement trace for one sentence")
    p_demo.add_argument("--checkpoint", required=True)
    p_demo.add_argument("--input", required=True)
    p_demo.add_argument("--index", type=int, default=0,
                        help="sentence index within the file")
    p_demo.add_argument("--t-max", type=int, dest="t_max",
                        default=RefinementConfig.t_max)
    return parser


def _cmd_train(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    config = RunConfig.from_sources(file_values, _overrides_from(args))
    result = train(config)
    final = result.dev_reports[-1] if result.dev_reports else None
    if final is not None:
        print(f"best epoch {result.best_epoch}; final dev {final}")
    print(f"checkpoint written to {result.checkpoint_path}")
    return 0


def _cmd_parse(args) -> int:
    model = checkpoint_load(args.checkpoint)
    sentences = load_conllu(args.input)
    refinement = RefinementConfig(t_max=args.t_max)
    parsed = []
    failed = 0
    for k, s in enumerate(sentences, start=1):
        try:
            (tree,), _ = parse_corpus(model, [s], refinement)
        except DataError as exc:
            # the sentence keeps its place in the output, with '_' heads and deprels
            print(f"warning: sentence {k} not parsed: {exc}", file=sys.stderr)
            tree = DepTree([None] * s.n, [None] * s.n)
            failed += 1
        parsed.append(Sentence(s.forms, tree))
    write_conllu(parsed, args.output)
    print(f"parsed {len(sentences) - failed} of {len(sentences)} sentences "
          f"into {args.output}")
    return 2 if failed else 0


def _cmd_eval(args) -> int:
    gold = load_conllu(args.gold)
    pred = load_conllu(args.pred)
    report = evaluate([s.tree for s in pred], [s.tree for s in gold])
    print(report)
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    # a second sentence one token longer, so the batch is padded; its last
    # form is out of the vocabulary
    longer = [f"w{i}" for i in range(args.tokens + 1)]
    vocab = Vocab.from_forms(longer[:-1])
    rel_vocab = RelationVocab.from_deprels(["a", "b"])
    cfg = ModelConfig(d=args.d, heads=args.heads, d_ff=2 * args.d,
                      layers=1, d_edge=args.d // 2, max_len=32)
    model = DependencyParserModel(cfg, vocab, rel_vocab, seed=args.seed)
    for param in model.registry:
        if "norm" not in param.name:
            param.tensor.data *= args.scale / 0.02
    batch = []
    for forms in (longer[:-1], longer):
        heads = [0] + [int(h) for h in rng.integers(0, 2, size=len(forms) - 1)]
        deprels = [str(rng.choice(["a", "b"])) for _ in forms]
        batch.append((forms, dep_tree_to_graph(DepTree(heads, deprels), rel_vocab)))
    refinement = RefinementConfig(t_train=args.t_train)

    report = grad_check(lambda: refinement_loss(batch, model, refinement),
                        model.registry, eps=args.eps)
    for line in report.lines():
        print(line)
    print(f"max relative error {report.max_error:.3e} "
          f"({'PASS' if report.passed else 'FAIL'} at {report.threshold:g})")
    return 0 if report.passed else 3


def _cmd_refine_demo(args) -> int:
    model = checkpoint_load(args.checkpoint)
    sentences = load_conllu(args.input)
    if not (0 <= args.index < len(sentences)):
        raise DataError(f"sentence index {args.index} out of range "
                        f"(file has {len(sentences)} sentences)")
    sentence = sentences[args.index]
    refinement = RefinementConfig(t_max=args.t_max)
    _, trace = refine(sentence.forms, model, refinement)
    print(f"sentence: {' '.join(sentence.forms)}")
    previous = None
    for step in trace.steps:
        if previous is None:
            changed = "-"
        else:
            changed = str(int(np.sum(step.graph.labels != previous)))
        arcs = []
        for i in range(1, step.graph.n):
            for j in range(step.graph.n):
                label = step.graph.label(i, j)
                name = model.rel_vocab.labels[label]
                if label != 0 and name.endswith("↑"):
                    arcs.append(f"{i}<-{j}:{name[:-1]}")
        print(f"t={step.t} converged={step.converged} changed_cells={changed} "
              f"arcs=[{', '.join(arcs)}]")
        previous = step.graph.labels
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "train": _cmd_train,
            "parse": _cmd_parse,
            "eval": _cmd_eval,
            "gradcheck": _cmd_gradcheck,
            "refine-demo": _cmd_refine_demo,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
