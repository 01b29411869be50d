"""Every flag a command accepts is read.

A flag that the parser takes and no code reads looks like it works.  For each
command, and each kind of ``experiment``, every option of its parser must be
read from ``args`` by ``cli.main``, by the command's ``_cmd_*`` function, or
by a ``cli`` function that either of them passes ``args`` to.
"""

import argparse
import ast
import dataclasses
import inspect

import pytest

from mnar_dre import cli


def _leaf_parsers(parser, name=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(name), parser
    for action in subs:
        for choice, sub in action.choices.items():
            yield from _leaf_parsers(sub, name + (choice,))


LEAVES = dict(_leaf_parsers(cli.build_parser()))


def _reads(func, param: str = "args") -> set[str]:
    """The attributes of ``param`` that ``func`` loads, and those that every
    ``cli`` function it passes ``param`` to loads under its own name for it."""
    reads = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == param):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = getattr(cli, node.func.id, None)
            if not (inspect.isfunction(callee) and callee.__module__ == cli.__name__):
                continue
            names = list(inspect.signature(callee).parameters)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    reads |= _reads(callee, names[i])
    return reads


def _options(parser) -> set[str]:
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


def test_every_command_and_experiment_kind_is_covered():
    assert sorted(LEAVES) == sorted(
        [c for c in cli.build_parser()._subparsers._group_actions[0].choices
         if c != "experiment"]
        + [f"experiment {kind}" for kind in cli.EXPERIMENT_KINDS]
    )


@pytest.mark.parametrize("name", LEAVES)
def test_every_option_is_read(name):
    parser = LEAVES[name]
    reads = _reads(cli.main) | _reads(parser.get_default("func"))
    if name.startswith("experiment "):
        # _cmd_experiment hands every config field that args holds to the
        # kind's config class.
        config_class = cli.EXPERIMENT_KINDS[name.split()[1]][0]
        reads |= {field.name for field in dataclasses.fields(config_class)}
    unread = sorted(_options(parser) - reads)
    assert unread == [], f"{name} accepts options nothing reads: {unread}"


def test_reads_follow_args_into_helpers():
    # fit reads its CSV flags in _read_csv, which _cmd_fit passes args to;
    # emit-plot-data reads no dataset CSV.
    assert {"missing_token", "label_column"} <= _reads(cli._cmd_fit)
    assert not {"missing_token", "label_column"} & _reads(cli._cmd_emit_plot_data)
