"""The ``macross`` option table, pinned.

``EXPECTED`` was generated once from the parser of the hand-written CLI
that :func:`repro.cli.build_parser` replaced (captured by intercepting
``parse_args``), so this test proves the parents-based parser lost,
renamed and re-defaulted nothing.  One row per argument: option strings
(``""`` for a positional), dest, default, choices, nargs, type name,
required, and the argparse action kind.  Deliberately numpy-free: the
minimal-install CI lane runs it.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser

EXPECTED = {
    'list': set(),
    'targets': set(),
    'compile': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--cpp', 'cpp', False, None, 0, None, False, 'StoreTrue'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--pipeline', 'pipeline', None, None, None, None, False, 'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
    },
    'run': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--backend', 'backend', 'interp', ('interp', 'compiled', 'vector'),
         None, None, False, 'Store'),
        ('--cores', 'cores', 1, None, None, 'int', False, 'Store'),
        ('--iterations', 'iterations', 4, None, None, 'int', False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
        ('--stall-timeout', 'stall_timeout', 30.0, None, None, 'float', False,
         'Store'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
    },
    'multicore': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--backend', 'backend', 'interp', ('interp', 'compiled', 'vector'),
         None, None, False, 'Store'),
        ('--cores', 'cores', None, None, None, 'int', False, 'Append'),
        ('--iterations', 'iterations', 2, None, None, 'int', False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--partitioner', 'partitioner', 'lpt', None, None, None, False,
         'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
    },
    'plan': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--cores', 'cores', 4, None, None, 'int', False, 'Store'),
        ('--iterations', 'iterations', 2, None, None, 'int', False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--memory-budget', 'memory_budget', None, None, None, 'int', False,
         'Store'),
        ('--points', 'points', 8, None, None, 'int', False, 'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
        ('--target', 'machine', None, None, None, None, False, 'Store'),
    },
    'profile': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--backend', 'backend', 'interp', ('interp', 'compiled', 'vector'),
         None, None, False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
    },
    'trace': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--backend', 'backend', 'compiled', ('interp', 'compiled', 'vector'),
         None, None, False, 'Store'),
        ('--iterations', 'iterations', 4, None, None, 'int', False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
        ('--top', 'top', 10, None, None, 'int', False, 'Store'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
    },
    'dot': {
        ('', 'benchmark', None, None, None, None, True, 'Store'),
        ('--compiled', 'compiled', False, None, 0, None, False, 'StoreTrue'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--sagu', 'sagu', False, None, 0, None, False, 'StoreTrue'),
    },
    'fuzz': {
        ('--backend', 'backend', None, ('compiled', 'vector'), None, None,
         False, 'Append'),
        ('--budget', 'budget', 100, None, None, 'int', False, 'Store'),
        ('--corpus', 'corpus', None, None, None, None, False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Append'),
        ('--replay-only', 'replay_only', False, None, 0, None, False,
         'StoreTrue'),
        ('--seed', 'seed', 0, None, None, 'int', False, 'Store'),
        ('--time-limit', 'time_limit', None, None, None, 'float', False,
         'Store'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
    },
    'serve': {
        ('', 'benchmarks', None, None, '+', None, True, 'Store'),
        ('--admit-timeout', 'admit_timeout', 30.0, None, None, 'float', False,
         'Store'),
        ('--backend', 'backend', 'compiled', ('interp', 'compiled', 'vector'),
         None, None, False, 'Store'),
        ('--iterations', 'iterations', 4, None, None, 'int', False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--max-queue-depth', 'max_queue_depth', 8, None, None, 'int', False,
         'Store'),
        ('--pipeline', 'pipeline', 'full', None, None, None, False, 'Store'),
        ('--policy', 'policy', 'round-robin', None, None, None, False,
         'Store'),
        ('--sessions', 'sessions', 8, None, None, 'int', False, 'Store'),
        ('--shm-threshold', 'shm_threshold', None, None, None, 'int', False,
         'Store'),
        ('--store', 'store', None, None, None, None, False, 'Store'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
        ('--transport', 'transport', 'shm', ('queue', 'shm'), None, None,
         False, 'Store'),
        ('--workers', 'workers', 2, None, None, 'int', False, 'Store'),
    },
    'loadgen': {
        ('--apps', 'apps', None, None, '+', None, True, 'Store'),
        ('--backend', 'backend', 'compiled', ('interp', 'compiled', 'vector'),
         None, None, False, 'Store'),
        ('--concurrency', 'concurrency', 2, None, None, 'int', False, 'Store'),
        ('--iterations', 'iterations', 4, None, None, 'int', False, 'Store'),
        ('--json', 'json', None, None, None, None, False, 'Store'),
        ('--kill-worker-after', 'kill_worker_after', None, None, None, 'int',
         False, 'Store'),
        ('--machine', 'machine', None, None, None, None, False, 'Store'),
        ('--max-queue-depth', 'max_queue_depth', 8, None, None, 'int', False,
         'Store'),
        ('--mode', 'mode', 'closed', ('closed', 'open'), None, None, False,
         'Store'),
        ('--pipeline', 'pipeline', 'full', None, None, None, False, 'Store'),
        ('--policy', 'policy', 'least-loaded', None, None, None, False,
         'Store'),
        ('--rate', 'rate', 20.0, None, None, 'float', False, 'Store'),
        ('--requests', 'requests', 32, None, None, 'int', False, 'Store'),
        ('--shm-threshold', 'shm_threshold', None, None, None, 'int', False,
         'Store'),
        ('--store', 'store', None, None, None, None, False, 'Store'),
        ('--trace', 'trace', None, None, None, None, False, 'Store'),
        ('--transport', 'transport', 'shm', ('queue', 'shm'), None, None,
         False, 'Store'),
        ('--workers', 'workers', 2, None, None, 'int', False, 'Store'),
    },
    'fig10a': {
        ('--benchmarks', 'benchmarks', None, None, '*', None, False, 'Store'),
    },
    'fig10b': {
        ('--benchmarks', 'benchmarks', None, None, '*', None, False, 'Store'),
    },
    'fig11': {
        ('--benchmarks', 'benchmarks', None, None, '*', None, False, 'Store'),
    },
    'fig12': {
        ('--benchmarks', 'benchmarks', None, None, '*', None, False, 'Store'),
    },
    'fig13': {
        ('--benchmarks', 'benchmarks', None, None, '*', None, False, 'Store'),
    },
    'all': set(),
}


def _subcommands(parser: argparse.ArgumentParser):
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub


def _options(parser: argparse.ArgumentParser) -> set:
    rows = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.add((" ".join(action.option_strings), action.dest,
                  action.default,
                  None if action.choices is None else tuple(action.choices),
                  action.nargs, getattr(action.type, "__name__", None),
                  action.required, type(action).__name__[1:-len("Action")]))
    return rows


def test_command_set():
    sub = _subcommands(build_parser())
    assert sub.dest == "command" and sub.required
    assert list(sub.choices) == list(EXPECTED)


def test_every_option_of_every_command():
    sub = _subcommands(build_parser())
    for name, expected in EXPECTED.items():
        assert _options(sub.choices[name]) == expected, name


def test_every_command_has_a_runner():
    sub = _subcommands(build_parser())
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("run")), name
